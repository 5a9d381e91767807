"""Shared helpers for the benchmark suite.

Each benchmark regenerates one table/figure-equivalent of the paper
(DESIGN.md's per-experiment index): it sweeps instance sizes, asserts the
predicted growth *shape*, records the measured rows under
``benchmarks/results/`` (the numbers EXPERIMENTS.md quotes), and times a
representative operation with pytest-benchmark.

Structured measurements go through :func:`record_case`, the single
recorder of the complexity observatory: every case becomes one canonical
``repro-bench/1`` record (points, provenance, fitted log-log slope,
verdict), appended to ``benchmarks/history/<suite>.jsonl`` and merged
into the ``BENCH_<suite>.json`` snapshot at the repo root.  Schema-less
payloads are rejected at the door — there is no ad-hoc JSON path left.
"""

from __future__ import annotations

import datetime
import os
import time
from typing import Callable, Dict, Optional, Sequence, Tuple

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HISTORY_DIR = os.path.join(os.path.dirname(__file__), "history")

# one timestamp per benchmark process: every case recorded by the same
# run carries the same provenance stamp, so history rows group by run
_RUN_TIMESTAMP: Optional[str] = None


def record(name: str, text: str) -> str:
    """Write one experiment's measured rows to benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text.rstrip() + "\n")
    return path


def run_timestamp() -> str:
    global _RUN_TIMESTAMP
    if _RUN_TIMESTAMP is None:
        _RUN_TIMESTAMP = datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds")
    return _RUN_TIMESTAMP


def record_case(suite: str, case: str, metric: str,
                points: Sequence[Dict[str, object]],
                expectation: Optional[str] = None,
                history_dir: str = HISTORY_DIR,
                snapshot_dir: str = REPO_ROOT) -> dict:
    """Record one benchmark case under the canonical observatory schema.

    ``points`` are ``{"n": size, "value": measurement, ...extras}`` rows;
    the observatory fits the log-log slope, derives the verdict, stamps
    provenance, appends to ``<history_dir>/<suite>.jsonl`` and refreshes
    ``<snapshot_dir>/BENCH_<suite>.json``.  Raises
    :class:`repro.obs.observatory.SchemaError` on malformed payloads.
    """
    from repro.obs.observatory import collect_provenance, make_record, \
        save_records

    rec = make_record(suite, case, metric, points, expectation=expectation,
                      provenance=collect_provenance(run_timestamp()))
    save_records([rec], history_dir, snapshot_dir)
    return rec


def timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def best_cold(build: Callable[[], object], fn: Callable[[object], object],
              repeats: int = 2) -> Tuple[float, object]:
    """Best time of ``fn(db)`` over ``repeats`` fresh databases from
    ``build()``, and the last result.  The plan cache is keyed on the
    database, so no repeat is served from the cache."""
    best, result = float("inf"), None
    for _ in range(repeats):
        db = build()
        start = time.perf_counter()
        result = fn(db)
        best = min(best, time.perf_counter() - start)
    return best, result


def format_rows(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    widths = [max(len(str(h)), max((len(f"{v:.6g}" if isinstance(v, float) else str(v))
                                    for v in col), default=0))
              for h, col in zip(header, zip(*rows))] if rows else [len(h) for h in header]
    out = ["  ".join(str(h).rjust(w) for h, w in zip(header, widths))]
    for row in rows:
        out.append("  ".join(
            (f"{v:.6g}" if isinstance(v, float) else str(v)).rjust(w)
            for v, w in zip(row, widths)))
    return "\n".join(out)
