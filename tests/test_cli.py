"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, load_csv_database, main
from repro.errors import MalformedQueryError


@pytest.fixture
def tables(tmp_path):
    (tmp_path / "R.csv").write_text("1,2\n2,3\n# comment\n\n")
    (tmp_path / "S.csv").write_text("2,10\n3,30\n")
    (tmp_path / "Names.csv").write_text("1,ana\n2,bo\n")
    (tmp_path / "notes.txt").write_text("ignored")
    return str(tmp_path)


def test_load_csv_database(tables):
    db = load_csv_database(tables)
    assert set(db.relation_names()) == {"R", "S", "Names"}
    assert (1, 2) in db.relation("R")
    assert (1, "ana") in db.relation("Names")  # mixed int/str parsing
    assert db.relation("R").arity == 2


def test_load_csv_database_names_the_ragged_row(tmp_path):
    (tmp_path / "R.csv").write_text("1,2\n# comment\n3,4\n5\n")
    with pytest.raises(MalformedQueryError,
                       match=r"R\.csv, line 4: row has 1 values"):
        load_csv_database(str(tmp_path))


def test_run_ragged_csv_prints_one_error_line(tmp_path, capsys):
    (tmp_path / "R.csv").write_text("1,2\n3,4,5\n")
    assert main(["run", "Q(x, y) :- R(x, y)", "--data", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("repro: error: ") and "line 2" in err[0]


def test_run_missing_data_dir_prints_one_error_line(tmp_path, capsys):
    missing = str(tmp_path / "absent")
    assert main(["run", "Q(x, y) :- R(x, y)", "--data", missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("repro: error: ") and missing in err[0]


def test_run_bad_query_prints_one_error_line(tables, capsys):
    assert main(["run", "Q(x :- R(x, y)", "--data", tables]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("repro: error: ")


@pytest.mark.parametrize("command", ["explain", "analyze"])
@pytest.mark.parametrize("query", [
    "Q() :- not R(x, y)",                       # neither a CQ nor a UCQ
    "Q(x) :- R(x) ; Q(x) :- R(x, y)",           # R at two arities
], ids=["ncq", "two-arities"])
def test_no_synthetic_database_prints_one_error_line(command, query,
                                                     capsys):
    """Without ``--data`` both commands generate data only for CQs and
    UCQs; any other query ends in one typed error line (exit 2), not a
    traceback or a bare exit."""
    assert main([command, query, "--size", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("repro: error: ")


EXPLAIN = ["explain", "Q(x) :- R(x, z), S(z, y)", "--size", "200"]
DEAD_ENGINE = ("repro: error: unknown engine 'parallel'; "
               "available: ['columnar', 'tuple']")


@pytest.fixture
def no_engine_selection(monkeypatch):
    """Clear the process-wide engine selection for one test (restored
    afterwards), so ``REPRO_ENGINE`` decides and no ``--engine`` leaks
    into later tests."""
    monkeypatch.setattr("repro.engine._SELECTED", None)


def test_unknown_engine_flag_prints_one_error_line(capsys,
                                                   no_engine_selection):
    assert main([*EXPLAIN, "--engine", "parallel"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [DEAD_ENGINE]


def test_unknown_engine_env_prints_one_error_line(monkeypatch, capsys,
                                                  no_engine_selection):
    monkeypatch.setenv("REPRO_ENGINE", "parallel")
    assert main(EXPLAIN) == 2
    assert capsys.readouterr().err.splitlines() == [DEAD_ENGINE]


def test_classify_command(capsys):
    assert main(["classify", "Q(x, y) :- R(x, z), S(z, y)"]) == 0
    out = capsys.readouterr().out
    assert "free_connex = False" in out
    assert "Theorem" in out


def test_run_command(tables, capsys):
    assert main(["run", "Q(x, y) :- R(x, z), S(z, y)", "--data", tables]) == 0
    out = capsys.readouterr().out
    assert "1\t10" in out and "2\t30" in out


def test_run_count(tables, capsys):
    assert main(["run", "Q(x, y) :- R(x, z), S(z, y)", "--data", tables,
                 "--count"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_run_limit(tables, capsys):
    assert main(["run", "Q(x, y) :- R(x, z), S(z, y)", "--data", tables,
                 "--limit", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1


def test_run_no_answers(tables, capsys):
    assert main(["run", "Q(x) :- R(x, x)", "--data", tables]) == 0
    assert "(no answers)" in capsys.readouterr().err


def test_figures_command(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out and "Figure 3" in out
    assert "quantified star size = 3" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_doctor_command(capsys):
    assert main(["doctor", "Q(a, c) :- F(a, b), F(b, c)"]) == 0
    out = capsys.readouterr().out
    assert "doctor's note" in out and "free-connex" in out


def test_doctor_command_core(capsys):
    assert main(["doctor", "Q(x) :- F(x, y), F(x, z)"]) == 0
    out = capsys.readouterr().out
    assert "core:" in out


def test_doctor_on_ncq(capsys):
    assert main(["doctor", "Q() :- not R(x, y)"]) == 0
    assert "NCQ" in capsys.readouterr().out


def test_doctor_prints_no_cache_counters(capsys):
    """Doctor evaluates no query in its own process, so cache counters
    there would always read 0."""
    for argv in (["doctor"], ["doctor", "Q(x) :- R(x, z), S(z, y)"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        for line in ("plan cache:", "symbol workspace:", "incremental:"):
            assert line not in out


def test_explain_command(capsys):
    assert main(["explain", "Q(x) :- R(x, z), S(z, y)",
                 "--size", "200"]) == 0
    out = capsys.readouterr().out
    assert "span tree" in out
    assert "FreeConnexEnumerator.preprocess" in out
    assert "FreeConnexEnumerator.enumerate" in out
    assert "plancache.misses" in out
    assert "plan cache:" in out
    assert "answers:" in out


def test_explain_count_mode(capsys):
    assert main(["explain", "Q(x) :- R(x, z), S(z, y)",
                 "--size", "200", "--count"]) == 0
    out = capsys.readouterr().out
    assert "count:" in out
    assert "planner.count" in out
    assert "route=free-connex" in out


def test_explain_count_shows_the_core_route(capsys):
    """The cyclic self-join query counts on its one-atom core: the
    planner span names the route and the core's size, and the
    star-size count runs under it."""
    assert main(["explain", "Q(x, y) :- E(x, y), E(x, z), E(w, y), E(w, z)",
                 "--size", "200", "--count"]) == 0
    out = capsys.readouterr().out
    assert "route=free-connex, core_atoms=1" in out
    assert "count.acq" in out and "(atoms=1)" in out


def test_explain_csv_data(tables, capsys):
    assert main(["explain", "Q(x) :- R(x, z), S(z, y)",
                 "--data", tables]) == 0
    out = capsys.readouterr().out
    assert "answers: 2" in out


def test_explain_trace_and_metrics(tmp_path, capsys):
    import json

    trace_path = tmp_path / "t.json"
    assert main(["explain", "Q(x) :- R(x, z), S(z, y)", "--size", "200",
                 "--trace", str(trace_path), "--metrics"]) == 0
    err = capsys.readouterr().err
    doc = json.loads(trace_path.read_text())
    assert doc["traceEvents"]
    metrics = json.loads(err[err.index("{"):])
    assert "plan_cache" in metrics and "counters" in metrics


def test_run_trace_and_metrics(tables, tmp_path, capsys):
    import json

    from repro import obs

    trace_path = tmp_path / "run.json"
    assert main(["run", "Q(x) :- R(x, z), S(z, y)", "--data", tables,
                 "--trace", str(trace_path), "--metrics"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()  # answers still on stdout
    doc = json.loads(trace_path.read_text())
    assert any(e.get("name") == "planner.enumerate"
               for e in doc["traceEvents"])
    metrics = json.loads(captured.err[captured.err.index("{"):])
    assert "counters" in metrics
    assert not obs.enabled()  # tracer restored after the command


def test_doctor_environment_checks(capsys):
    assert main(["doctor"]) == 0
    out = capsys.readouterr().out
    assert "timer overhead:" in out
    assert "machine noise:" in out


#: sweeps small enough that a CLI run of each suite stays well under a
#: second; the bench sweep spans less than a decade, so its verdicts are
#: `inconclusive` — fine for plumbing tests
SMALL_SWEEPS = {"bench": ((200, 400), (8, 12)), "dynamic": 2000,
                "selfjoin": (300, 600)}


@pytest.fixture
def small_suites(monkeypatch):
    from dataclasses import replace

    from repro.obs.observatory import SUITES

    for name, sweep in SMALL_SWEEPS.items():
        monkeypatch.setitem(SUITES, name,
                            replace(SUITES[name], sweep=sweep, quick=None))


def _bench_args(tmp_path, *extra, suites=("bench",)):
    return ["bench", "--suite", *suites, "--repeats", "1",
            "--history-dir", str(tmp_path / "hist"),
            "--snapshot-dir", str(tmp_path), *extra]


def test_bench_defaults():
    args = build_parser().parse_args(["bench"])
    assert args.suite == ["bench"]
    assert args.snapshot_dir == "." and not args.quick
    assert build_parser().parse_args(
        ["bench", "--engine", "columnar"]).engine == "columnar"


@pytest.mark.parametrize("flag", [["--trace", "x.json"], ["--metrics"],
                                  ["--incremental"]])
def test_bench_takes_no_setting_its_provenance_omits(flag, capsys):
    """A live tracer would slow the timed runs, and no record says so:
    ``bench`` rejects ``--trace`` and ``--metrics``, as it does the
    deleted switch of count refresh (usage error, exit 2); provenance
    records the engine, its one pipeline flag."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["report", "-o", "r.html"],
    ["analyze", "Q(x) :- R(x, z), S(z, y)", "--html", "a.html"],
    ["bench", "--gate", "off"],
    ["explain", "Q(x) :- R(x, z), S(z, y)", "--incremental"],
], ids=["report", "analyze-html", "bench-gate-off", "explain-incremental"])
def test_deleted_readouts_are_usage_errors(argv, capsys):
    """Results read out as text and JSON only: the HTML dashboard, the
    HTML analyze panel and ``bench --gate off`` are usage errors (exit
    2), and so is the deleted switch of count refresh."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_bench_suites_run_with_tracing_off(small_suites):
    """No provenance field records tracing, so the suites do not take
    the caller's tracer, and it is restored."""
    from repro import obs
    from repro.obs.observatory import run_suites

    with obs.capture() as tr:
        records = run_suites(["bench", "selfjoin"], "t", repeats=1)
        assert obs.tracer() is tr
    assert records
    assert not [name for name in tr.counters if name.startswith("delta.")]
    assert not tr.spans


def test_bench_command_records_history(tmp_path, capsys, small_suites):
    import json

    from repro.obs.observatory import Observatory, load_snapshot

    assert main(_bench_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "verdict" in out and "expected" in out
    assert "free_connex/delay" in out
    assert "lower_bound_triangle/total" in out
    assert main(_bench_args(tmp_path)) == 0  # second run appends
    obs = Observatory(str(tmp_path / "hist"))
    records = obs.load()
    assert len(records) == 10  # 5 cases x 2 runs
    for record in records:
        json.dumps(record)
        assert record["schema"] == "repro-bench/1"
        assert record["provenance"]["git_sha"]
    snapshot = load_snapshot(str(tmp_path / "BENCH_bench.json"))
    assert len(snapshot) == 5
    assert all(r["suite"] == "bench" for r in snapshot)


def test_bench_runs_every_suite(tmp_path, capsys, small_suites):
    from repro.obs.observatory import load_snapshot

    assert main(_bench_args(tmp_path, suites=("dynamic", "selfjoin"))) == 0
    dynamic = load_snapshot(str(tmp_path / "BENCH_dynamic.json"))
    assert {r["case"] for r in dynamic} == {"dynamic/count_refresh"}
    assert [p["n"] for p in dynamic[0]["points"]] == [2, 20, 200]
    selfjoin = load_snapshot(str(tmp_path / "BENCH_selfjoin.json"))
    assert len(selfjoin) == 4
    for record in dynamic + selfjoin:
        assert record["provenance"]["engine"] == "columnar"
    for record in dynamic:
        assert record["best_speedup_x"] > 0
    # one workspace build per symbol per version: the 3-atom self-join
    # path misses once and hits twice at every size
    for record in selfjoin:
        for point in record["points"]:
            assert point["symbol_cache_misses"] == 1
            assert point["symbol_cache_hits"] == 2
    assert not (tmp_path / "BENCH_bench.json").exists()


def test_bench_gates_only_the_suites_it_ran(tmp_path, capsys, small_suites):
    """A flagged case this run did not record (another suite's, or one
    its own suite no longer runs) neither prints nor fails ``bench
    --gate fail``."""
    from repro.obs.observatory import PROVENANCE_KEYS, Observatory, \
        make_record

    history = Observatory(str(tmp_path / "hist"))
    provenance = dict.fromkeys(PROVENANCE_KEYS, "test")
    for suite, case in (("enum", "plan_cache/tuple-warm"),
                        ("bench", "retired/total")):
        for value in (1.0, 1.0, 1.0, 10.0):
            history.append(make_record(
                suite, case, "total_seconds",
                [{"n": 100, "value": value}], provenance=provenance))
    assert main(_bench_args(tmp_path, "--gate", "fail")) == 0
    captured = capsys.readouterr()
    assert "plan_cache" not in captured.out + captured.err
    assert "retired" not in captured.out + captured.err
    assert "bench/free_connex/delay" in captured.out


def test_bench_gate_fail_exits_nonzero_on_a_slowed_case(tmp_path, capsys,
                                                        small_suites):
    """A case this run recorded above its rolling baseline band prints
    ``REGRESSION``; ``--gate fail`` exits 1 and ``--gate warn`` 0."""
    from repro.obs.observatory import Observatory

    assert main(_bench_args(tmp_path)) == 0
    history = Observatory(str(tmp_path / "hist"))
    fast = history.load("bench")[-1]
    for point in fast["points"]:
        point["value"] /= 1000
    for _ in range(3):
        history.append(fast)
    capsys.readouterr()
    assert main(_bench_args(tmp_path, "--gate", "fail")) == 1
    captured = capsys.readouterr()
    assert f"bench/{fast['case']}: REGRESSION" in captured.out
    assert "failing" in captured.err
    assert main(_bench_args(tmp_path, "--gate", "warn")) == 0
    assert "warn-only" in capsys.readouterr().err
