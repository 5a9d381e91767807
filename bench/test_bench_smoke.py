"""Smoke test of the end-to-end benchmark on small inputs.

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, ColdLoadCount  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = (2_000, 400)


@pytest.fixture
def bench_env(monkeypatch, tmp_path):
    """Run workloads in-process on a private environment and out dir."""
    monkeypatch.setattr(os, "environ", os.environ.copy())
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def _run(cls, trace=False, seed=3):
    run.configure_environment(cls.name)
    return run.run(cls, seed, 0.2, trace, sizes=SMALL)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_emitted_and_answers_correct(bench_env, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = _run(WORKLOADS[name], trace)
        assert result["failed"] == 0 and result["correct"]
        assert result["attempted"] >= run.MIN_REQUESTS
        metrics = result["metrics"]
        assert set(metrics) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            value = metrics[m["name"]]
            assert value["unit"] == m["unit"]
            assert math.isfinite(value["value"])
            if key == "end_to_end":
                assert value["value"] > 0
    assert json.loads((bench_env / f"trace-{name}.json").read_text())[
        "traceEvents"]
    assert "trace.unattributed_ms" in (
        bench_env / f"layers-{name}.txt").read_text()


def test_wrong_oracle_counts_as_failed(bench_env):
    class WrongPathCount(ColdLoadCount):
        def __init__(self, rows, seed):
            super().__init__(rows, seed)
            self.expect = [self.expect[0] + 1, self.expect[1]]

    result = _run(WrongPathCount)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_same_seed_same_inputs():
    first = repr(inputs.make_inputs(11, *SMALL)).encode()
    assert first == repr(inputs.make_inputs(11, *SMALL)).encode()
    assert first != repr(inputs.make_inputs(12, *SMALL)).encode()


def test_maintained_path_count_matches_recount():
    import random

    rows = inputs.make_inputs(5, *SMALL)
    state = inputs.PathCountState(rows, SMALL[0] // 4)
    rng = random.Random(5)
    for name in "RSTRST":
        state.plan_writes(rng, name, 50)
    assert state.total == state.recount()


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enum-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
