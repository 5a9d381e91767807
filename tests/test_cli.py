"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, load_csv_database, main


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


def test_bench_delay_command(capsys):
    assert main(["bench-delay", "--sizes", "200", "400"]) == 0
    out = capsys.readouterr().out
    assert "fc median us" in out
    assert len(out.strip().splitlines()) == 3


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


def test_doctor_prints_plan_cache_stats(capsys):
    assert main(["doctor", "Q(x) :- R(x, z), S(z, y)"]) == 0
    out = capsys.readouterr().out
    assert "plan cache:" in out and "evictions" in out


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


def test_bench_delay_json(tmp_path, capsys):
    import json

    path = tmp_path / "bd.json"
    assert main(["bench-delay", "--sizes", "200", "400",
                 "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["benchmark"] == "bench-delay"
    assert len(doc["rows"]) == 2
    row = doc["rows"][0]["free_connex"]
    for key in ("preprocessing_seconds", "outputs", "delay_p50_seconds",
                "delay_p95_seconds", "delay_p99_seconds"):
        assert key in row
    assert set(doc["slopes"]) == {"free_connex_delay_p50",
                                  "free_connex_preprocessing",
                                  "acq_linear_delay_mean"}


def test_bench_core_json(tmp_path, capsys):
    import json

    out_rows = tmp_path / "rows.json"
    path = tmp_path / "bc.json"
    assert main(["bench-core", "--sizes", "500", "1000", "--repeats", "1",
                 "--output", str(out_rows), "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["benchmark"] == "bench-core"
    assert doc["rows"] and doc["slopes"]
    for slope in doc["slopes"]:
        assert {"op", "backend", "loglog_slope"} <= set(slope)


def test_doctor_environment_checks(capsys):
    assert main(["doctor"]) == 0
    out = capsys.readouterr().out
    assert "timer overhead:" in out
    assert "machine noise:" in out
    assert "plan cache:" in out


def _bench_args(tmp_path, *extra):
    # tiny sub-decade sweep: fast, and the fitter's anti-flake rule makes
    # the join-suite verdicts `inconclusive` — fine for plumbing tests.
    # The parallel suite is off here (it has its own test below) so the
    # plumbing tests stay fast and never touch the repo-root snapshot.
    return ["bench", "--sizes", "200", "400", "--triangle-sizes", "8",
            "12", "--max-outputs", "50", "--repeats", "1",
            "--no-parallel-suite",
            "--history-dir", str(tmp_path / "hist"),
            "--snapshot", str(tmp_path / "BENCH_bench.json"), *extra]


def test_bench_command_records_history(tmp_path, capsys):
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
    assert len(load_snapshot(str(tmp_path / "BENCH_bench.json"))) == 5


def test_bench_parallel_suite_records(tmp_path, capsys):
    from repro.obs.observatory import Observatory, load_snapshot

    args = ["bench", "--sizes", "200", "--triangle-sizes", "8",
            "--max-outputs", "50", "--repeats", "1",
            "--parallel-size", "500",
            "--history-dir", str(tmp_path / "hist"),
            "--snapshot", str(tmp_path / "BENCH_bench.json"),
            "--parallel-snapshot", str(tmp_path / "BENCH_parallel.json")]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "parallel/enum_wall" in out
    assert "parallel/count_wall" not in out
    records = Observatory(str(tmp_path / "hist")).load("parallel")
    assert {r["case"] for r in records} == {"parallel/enum_wall"}
    for record in records:
        assert record["metric"] == "wall_seconds"
        assert record["provenance"]["engine"] == "parallel"
        for point in record["points"]:
            assert point["speedup_x"] > 0
    snapshot = load_snapshot(str(tmp_path / "BENCH_parallel.json"))
    assert len(snapshot) == 1
    # the bench snapshot carries only the join/triangle suites
    assert all(r["suite"] == "bench"
               for r in load_snapshot(str(tmp_path / "BENCH_bench.json")))


def test_bench_requires_sizes(capsys):
    assert main(["bench"]) == 2
    assert "--quick" in capsys.readouterr().err


def test_report_command(tmp_path, capsys):
    assert main(_bench_args(tmp_path)) == 0
    out_html = tmp_path / "report.html"
    assert main(["report", "-o", str(out_html),
                 "--history-dir", str(tmp_path / "hist")]) == 0
    assert "wrote" in capsys.readouterr().out
    html = out_html.read_text()
    assert "<svg" in html and "free_connex/delay" in html


def test_report_gate_fails_on_slowed_entry(tmp_path, capsys):
    import json

    from repro.obs.observatory import Observatory

    assert main(_bench_args(tmp_path, "--gate", "off")) == 0
    obs = Observatory(str(tmp_path / "hist"))
    slowed = json.loads(json.dumps(obs.load("bench")[-1]))
    for point in slowed["points"]:
        point["value"] *= 10
    obs.append(slowed)
    capsys.readouterr()
    assert main(["report", "-o", str(tmp_path / "r.html"),
                 "--history-dir", str(tmp_path / "hist"),
                 "--gate", "fail"]) == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.out
    assert "failing" in captured.err
    # warn-only keeps the exit code green on the same history
    assert main(["report", "-o", str(tmp_path / "r.html"),
                 "--history-dir", str(tmp_path / "hist")]) == 0
