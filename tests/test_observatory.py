"""Schema validation, history, regression gate and the suite runner of
:mod:`repro.obs.observatory`."""

import json
from functools import partial

import pytest

from repro.engine import DEFAULT_BLOCK_SIZE, use_engine
from repro.obs.observatory import (
    BASELINE_N,
    PROVENANCE_KEYS,
    SCHEMA,
    SUITES,
    Observatory,
    SchemaError,
    Suite,
    best_of,
    collect_provenance,
    headline,
    load_snapshot,
    make_record,
    merge_snapshot,
    run_suites,
    save_records,
    validate_record,
)
from tests.conftest import at_block_size

TS = "2026-08-05T00:00:00+00:00"
PROVENANCE = dict.fromkeys(PROVENANCE_KEYS, "test") | {"timestamp": TS}


def record_with(value=1.0, case="fc/delay", suite="t", scale=1.0):
    points = [{"n": n, "value": scale * value} for n in (100, 1000, 10000)]
    return make_record(suite, case, "delay_p50_seconds", points,
                       expectation="constant-delay",
                       provenance=PROVENANCE)


def test_make_record_computes_fit_and_verdict():
    rec = record_with()
    assert rec["schema"] == SCHEMA
    assert rec["verdict"] == "constant-delay"
    assert rec["verdict_ok"] is True
    assert rec["fit"]["n_points"] == 3
    json.dumps(rec)  # JSON-able throughout


def test_make_record_flags_wrong_shape():
    points = [{"n": n, "value": 1e-6 * n} for n in (100, 1000, 10000)]
    rec = make_record("t", "fc/delay", "delay_p50_seconds", points,
                      expectation="constant-delay",
                      provenance=PROVENANCE)
    assert rec["verdict"] == "linear"
    assert rec["verdict_ok"] is False


def test_recorder_rejects_schemaless_payloads():
    obs = Observatory("/tmp/nonexistent-history")
    with pytest.raises(SchemaError):
        obs.append({"experiment": "flat_delay", "n": 100, "value": 1.0})
    with pytest.raises(SchemaError):
        validate_record(["not", "a", "dict"])
    with pytest.raises(SchemaError):
        validate_record({"schema": "other/1", "suite": "t"})


def test_validation_requires_points_and_provenance():
    good = record_with()
    for breakage in (
        lambda r: r.pop("points"),
        lambda r: r.__setitem__("points", []),
        lambda r: r["points"][0].pop("value"),
        lambda r: r["points"][0].__setitem__("n", "big"),
        lambda r: r.pop("provenance"),
        lambda r: r["provenance"].pop("git_sha"),
        lambda r: r.__setitem__("metric", ""),
    ):
        broken = json.loads(json.dumps(good))
        breakage(broken)
        with pytest.raises(SchemaError):
            validate_record(broken)


def test_make_record_needs_timestamp_or_provenance():
    with pytest.raises(SchemaError):
        make_record("t", "c", "m", [{"n": 1, "value": 1.0}])


def test_collect_provenance_fields():
    with use_engine("columnar"):
        prov = collect_provenance(TS)
    rec = make_record("t", "c", "m", [{"n": 1, "value": 1.0}],
                      provenance=prov)
    assert rec["provenance"]["timestamp"] == TS
    assert rec["provenance"]["engine"] == "columnar"
    assert rec["provenance"]["block_size"] == DEFAULT_BLOCK_SIZE
    assert rec["provenance"]["python"].count(".") == 2
    assert rec["provenance"]["timer_overhead_ns"] >= 0


def test_provenance_records_the_block_size_enumerators_use():
    """Provenance reads B from ``repro.engine.enumerate`` when it is
    collected, so a record made under a patched constant names the B
    its enumerations ran at."""
    with at_block_size(7):
        assert collect_provenance(TS)["block_size"] == 7
    assert collect_provenance(TS)["block_size"] == DEFAULT_BLOCK_SIZE


def test_history_append_and_load(tmp_path):
    obs = Observatory(str(tmp_path / "history"))
    for value in (1.0, 1.1):
        obs.append(record_with(value))
    assert obs.suites() == ["t"]
    records = obs.load()
    assert len(records) == 2
    assert [r["case"] for r in records] == ["fc/delay", "fc/delay"]
    cases = obs.cases()
    assert len(cases[("t", "fc/delay")]) == 2


def test_history_skips_corrupt_lines(tmp_path):
    obs = Observatory(str(tmp_path))
    obs.append(record_with())
    with open(obs.path_for("t"), "a") as fh:
        fh.write("{not json\n")
        fh.write(json.dumps({"schema": "bad"}) + "\n")
    assert len(obs.load()) == 1


def _seed_history(obs, values, case="fc/delay", provenance=PROVENANCE):
    for value in values:
        points = [{"n": 100, "value": value / 10},
                  {"n": 10000, "value": value}]
        obs.append(make_record("t", case, "delay_p50_seconds", points,
                               provenance=provenance))


def test_regression_gate_flags_slowed_entry(tmp_path):
    obs = Observatory(str(tmp_path))
    _seed_history(obs, [1.0, 1.02, 0.98, 1.01, 0.99])
    clean = obs.regressions()
    assert len(clean) == 1 and not clean[0].flagged
    # a synthetically slowed run must trip the gate
    _seed_history(obs, [10.0])
    flagged = obs.regressions()
    assert flagged[0].flagged
    assert flagged[0].baseline == pytest.approx(1.0, rel=0.05)
    assert flagged[0].ratio > 5
    assert "REGRESSION" in flagged[0].describe()


def test_regression_band_widens_with_noisy_baseline(tmp_path):
    obs = Observatory(str(tmp_path))
    # jittery baseline: +-40% swings should widen the band past 30%
    _seed_history(obs, [1.0, 1.4, 0.6, 1.45, 0.62, 1.35])
    reg = obs.regressions()[0]
    assert reg.band > 0.30
    assert not reg.flagged


def test_regression_no_baseline_on_first_run(tmp_path):
    obs = Observatory(str(tmp_path))
    _seed_history(obs, [1.0])
    reg = obs.regressions()[0]
    assert reg.baseline is None and not reg.flagged
    assert "no baseline" in reg.describe()


def test_regression_uses_rolling_window(tmp_path):
    obs = Observatory(str(tmp_path))
    # ancient slow history outside the last-N window must not raise the
    # baseline: 8 fast runs follow, then a slow one
    _seed_history(obs, [50.0, 50.0] + [1.0] * (BASELINE_N + 3) + [10.0])
    reg = obs.regressions()[0]
    assert reg.baseline == pytest.approx(1.0)
    assert reg.flagged


def test_regression_baseline_ignores_other_metrics(tmp_path):
    obs = Observatory(str(tmp_path))
    # old runs measured delay; the recorder then switched the case to
    # throughput (numerically enormous by comparison).  The gate must
    # not flag the metric change as a 10^12x regression.
    _seed_history(obs, [1.5e-6, 1.6e-6])
    points = [{"n": 100, "value": 5e4}, {"n": 10000, "value": 5e5}]
    obs.append(make_record("t", "fc/delay", "throughput_per_s", points,
                           provenance=PROVENANCE))
    reg = obs.regressions()[0]
    assert reg.metric == "throughput_per_s"
    assert reg.baseline is None and not reg.flagged


def test_regression_baseline_ignores_other_machines(tmp_path):
    """Timings from a host with another ``machine`` fingerprint are no
    baseline: a slowed run on the same host still flags, while the
    first run on a new host reports no baseline at all."""
    obs = Observatory(str(tmp_path))
    _seed_history(obs, [1.0, 1.02, 0.98, 1.01, 0.99])
    _seed_history(obs, [10.0])
    flagged = obs.regressions()[0]
    assert flagged.flagged
    assert flagged.baseline == pytest.approx(1.0, rel=0.05)
    _seed_history(obs, [10.0], provenance=PROVENANCE | {"machine": "other"})
    reg = obs.regressions()[0]
    assert reg.baseline is None and not reg.flagged
    assert "no baseline" in reg.describe()


def test_headline_is_value_at_largest_n():
    rec = make_record("t", "c", "m",
                      [{"n": 1000, "value": 5.0}, {"n": 10, "value": 9.0}],
                      provenance=PROVENANCE)
    assert headline(rec) == 5.0


def test_snapshot_merge_replaces_case(tmp_path):
    path = str(tmp_path / "BENCH_t.json")
    merge_snapshot(path, record_with(1.0))
    merge_snapshot(path, record_with(2.0))
    merge_snapshot(path, record_with(1.0, case="other"))
    records = load_snapshot(path)
    assert len(records) == 2
    assert {r["case"] for r in records} == {"fc/delay", "other"}


def test_load_snapshot_ignores_legacy_files(tmp_path):
    path = tmp_path / "BENCH_old.json"
    path.write_text(json.dumps([{"op": "x", "n": 1, "backend": "tuple",
                                 "seconds": 0.5}]))
    assert load_snapshot(str(path)) == []


def test_best_of_takes_the_minimum_and_runs_setup_untimed():
    calls = []
    assert best_of(lambda: calls.append("fn"), repeats=3,
                   setup=lambda: calls.append("setup")) >= 0
    assert calls == ["setup", "fn"] * 3
    calls.clear()
    best_of(lambda: calls.append("fn"), repeats=0)
    assert calls == ["fn"]  # at least one call


def test_run_suites_picks_sweeps_and_stamps_one_provenance(monkeypatch):
    seen = []

    def fake(sweep, repeats, seed, **engine):
        seen.append((sweep, repeats, seed))
        return [dict(case="c", metric="m", points=[{"n": 1, "value": 1.0}],
                     extra=sweep, **engine)]

    monkeypatch.setitem(SUITES, "x", Suite(partial(fake, engine="columnar"),
                                           "full", quick="small"))
    monkeypatch.setitem(SUITES, "y", Suite(fake, "full"))
    records = run_suites(["x", "y"], TS, quick=True, repeats=1, seed=3)
    assert seen == [("small", 1, 3), ("full", 1, 3)]
    assert [(r["suite"], r["extra"]) for r in records] == [("x", "small"),
                                                           ("y", "full")]
    # a case's pinned engine lands in provenance, not on the record
    assert all("engine" not in r for r in records)
    x_prov, y_prov = (r["provenance"] for r in records)
    assert x_prov["engine"] == "columnar"
    assert y_prov["engine"] == collect_provenance(TS)["engine"]
    assert {k: v for k, v in x_prov.items() if k != "engine"} == \
        {k: v for k, v in y_prov.items() if k != "engine"}
    assert run_suites(["x"], TS)[0]["extra"] == "full"


def test_save_records_appends_history_and_merges_snapshots(tmp_path):
    records = [record_with(1.0, suite="a"), record_with(1.0, suite="b"),
               record_with(2.0, suite="a")]
    save_records(records, str(tmp_path / "hist"), str(tmp_path))
    assert len(Observatory(str(tmp_path / "hist")).load("a")) == 2
    snapshot = load_snapshot(str(tmp_path / "BENCH_a.json"))
    assert [headline(r) for r in snapshot] == [2.0]
    assert len(load_snapshot(str(tmp_path / "BENCH_b.json"))) == 1


def test_save_records_creates_the_snapshot_directory(tmp_path):
    snapshots = tmp_path / "new" / "snapshots"
    save_records([record_with(1.0, suite="a")], str(tmp_path / "hist"),
                 str(snapshots))
    assert len(load_snapshot(str(snapshots / "BENCH_a.json"))) == 1
