"""``repro analyze`` — estimated-vs-actual introspection (ISSUE 9).

Covers the analysis backend (per-operator rows, scale checks, flag
semantics), the text/HTML renderings, the CLI subcommand, and the
acceptance scenario tying the whole PR together: a watchdog violation's
trace_id surfaces as the p99 exemplar on the plan's delay sketch,
resolves to a retained trace file on disk, and ``analyze`` flags the
offending operator.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.core.plancache import clear_plan_cache
from repro.data.generators import random_database
from repro.logic.parser import parse_query
from repro.obs import watchdog as wdmod
from repro.obs.analyze import FLAG, INFO, OK, analyze, render_text
from repro.obs.expose import emit_event, event_log
from repro.obs.registry import registry, set_enabled
from repro.obs.report import render_analyze_html
from repro.obs.tracelint import lint_chrome_trace_file
from repro.obs.watchdog import GuaranteeWatchdog, plan_label

FREE_CONNEX = "Q(x) :- R(x, z), S(z, y)"
ACYCLIC_ONLY = "Q(x, y) :- R(x, z), S(z, y)"
# cyclic, with the one-atom free-connex core E(x, y)
CORE_ONE_ATOM = "Q(x, y) :- E(x, y), E(x, z), E(w, y), E(w, z)"
# cyclic, with the two-atom free-connex core R(x, z), S(z, y)
CORE_TWO_ATOMS = "Q(x, z) :- R(x, z), S(z, y), R(x, w), S(w, y)"


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_plan_cache()
    registry().reset()
    event_log().clear()
    prev = set_enabled(True)
    wdmod.uninstall()
    yield
    wdmod.uninstall()
    wdmod.watchdog().reset()
    set_enabled(prev)
    registry().reset()
    event_log().clear()
    clear_plan_cache()
    obs.disable()


# ------------------------------------------------------------- the backend


def test_analyze_free_connex_produces_the_full_row_set():
    q = parse_query(FREE_CONNEX)
    analysis = analyze(q, size=800, seed=3)
    ops = [r["operator"] for r in analysis["rows"]]
    assert "materialise" in ops
    assert "semijoin[bottom_up]" in ops and "semijoin[top_down]" in ops
    assert any(op.endswith("full_reduce") for op in ops)
    assert "enumerate" in ops
    assert analysis["expected"]["delay"] == "constant-delay"
    assert analysis["expected"]["preprocessing"] == "linear"
    assert analysis["sizes"] == [800, 1600]
    assert len(analysis["answers"]) == 2
    assert len(analysis["trace_ids"]) == 2  # both runs sampled
    # a healthy run flags nothing
    assert analysis["flagged"] == []
    # every row's status is one of the three levels
    assert all(r["status"] in (OK, FLAG, INFO) for r in analysis["rows"])


@pytest.mark.parametrize("text, core_atoms", [(CORE_ONE_ATOM, 1),
                                              (CORE_TWO_ATOMS, 2)])
def test_analyze_runs_the_core_of_a_cyclic_selfjoin_query(text, core_atoms):
    """The query is cyclic, but the planner runs its free-connex core,
    so the full row set of a constant-delay plan shows up and nothing
    is flagged.  A one-atom core has no semijoin step to report."""
    analysis = analyze(parse_query(text), size=2000, seed=7)
    assert analysis["facts"]["route"] == "free-connex"
    assert analysis["facts"]["core_atoms"] == core_atoms
    rows = {r["operator"]: r for r in analysis["rows"]}
    needed = ["materialise", "yannakakis.full_reduce", "enumerate"]
    if core_atoms > 1:
        needed += ["semijoin[bottom_up]", "semijoin[top_down]"]
    for op in needed:
        assert op in rows, (op, sorted(rows))
    assert analysis["expected"]["delay"] == "constant-delay"
    assert rows["enumerate"]["status"] == OK
    assert "no delay samples" not in rows["enumerate"]["actual"]
    assert analysis["flagged"] == []


def test_analyze_with_explicit_db_skips_the_scale_run():
    q = parse_query(FREE_CONNEX)
    db = random_database({"R": 2, "S": 2}, 30, 200, seed=1)
    analysis = analyze(q, db)
    assert len(analysis["sizes"]) == 1 and len(analysis["answers"]) == 1
    # scale-dependent checks degrade to info, never to a false flag
    prep = [r for r in analysis["rows"]
            if r["operator"].endswith("full_reduce")]
    assert prep and prep[0]["status"] in (OK, INFO)


def test_semijoin_invariant_rows_report_filtering():
    q = parse_query(FREE_CONNEX)
    analysis = analyze(q, size=600, seed=2)
    for phase in ("bottom_up", "top_down"):
        row = next(r for r in analysis["rows"]
                   if r["operator"] == f"semijoin[{phase}]")
        assert row["status"] == OK
        assert "in " in row["actual"] and "out" in row["actual"]


def test_recent_violation_for_this_plan_flags_enumerate():
    q = parse_query(FREE_CONNEX)
    emit_event("guarantee.violation", plan=plan_label(q),
               expected="constant-delay", p99_ns=10 ** 6,
               budget_ns=10 ** 3, trace_id="feedbeeffeedbeef")
    db = random_database({"R": 2, "S": 2}, 30, 200, seed=1)
    analysis = analyze(q, db)
    row = next(r for r in analysis["rows"] if r["operator"] == "enumerate")
    assert row["status"] == FLAG
    assert "guarantee.violation" in row["note"]
    assert "enumerate" in analysis["flagged"]
    assert analysis["violations"]


def test_violation_for_a_different_plan_does_not_flag():
    q = parse_query(FREE_CONNEX)
    emit_event("guarantee.violation", plan="some other plan",
               expected="constant-delay", p99_ns=10 ** 6, budget_ns=10 ** 3)
    db = random_database({"R": 2, "S": 2}, 30, 200, seed=1)
    analysis = analyze(q, db)
    assert "enumerate" not in analysis["flagged"]


# ------------------------------------------------------------- renderings


def test_render_text_is_a_complete_table():
    q = parse_query(FREE_CONNEX)
    analysis = analyze(q, size=600, seed=2)
    text = render_text(analysis)
    assert "operator" in text and "expected" in text and "actual" in text
    for r in analysis["rows"]:
        assert r["operator"] in text
    assert "all operators within their predicted class" in text


def test_render_text_names_the_flagged_operators():
    q = parse_query(FREE_CONNEX)
    emit_event("guarantee.violation", plan=plan_label(q),
               expected="constant-delay", p99_ns=10 ** 6, budget_ns=10 ** 3)
    db = random_database({"R": 2, "S": 2}, 30, 200, seed=1)
    text = render_text(analyze(q, db))
    assert "FLAGGED: enumerate" in text


def test_render_analyze_html_is_self_contained():
    q = parse_query(FREE_CONNEX)
    analysis = analyze(q, size=600, seed=2)
    html_text = render_analyze_html(analysis)
    assert html_text.startswith("<!DOCTYPE html>")
    for r in analysis["rows"]:
        assert r["operator"] in html_text
    assert "<script" not in html_text  # inline-only, like the dashboard


# -------------------------------------------------------------------- CLI


def test_cli_analyze_prints_table_and_writes_html(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "panel.html"
    rc = main(["analyze", FREE_CONNEX, "--size", "500", "--seed", "2",
               "--html", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "enumerate" in stdout and "constant-delay" in stdout
    assert out.exists() and "<!DOCTYPE html>" in out.read_text()


def test_cli_analyze_strict_fails_on_flag(tmp_path, capsys):
    from repro.cli import main

    q = parse_query(FREE_CONNEX)
    emit_event("guarantee.violation", plan=plan_label(q),
               expected="constant-delay", p99_ns=10 ** 6, budget_ns=10 ** 3)
    data = tmp_path / "data"
    data.mkdir()
    db = random_database({"R": 2, "S": 2}, 20, 80, seed=1)
    for rel in db.relations():
        with open(data / f"{rel.name}.csv", "w") as fh:
            for row in rel:
                fh.write(",".join(str(v) for v in row) + "\n")
    rc = main(["analyze", FREE_CONNEX, "--data", str(data), "--strict"])
    assert rc == 1
    assert "FLAGGED: enumerate" in capsys.readouterr().out


# ------------------------------------------------------------- acceptance


def test_acceptance_violation_exemplar_resolves_to_retained_trace(tmp_path):
    """The PR's end-to-end story: force a superlinear path on a
    constant-delay plan under the watchdog with tail retention on.  The
    fired ``guarantee.violation`` carries the request's trace_id; that
    same trace_id is the p99 exemplar on the plan's delay sketch,
    resolves through the watchdog to a retained (and lint-clean) trace
    file, and ``analyze`` flags the offending operator."""
    q = parse_query(FREE_CONNEX)
    label = plan_label(q)
    wd = GuaranteeWatchdog(factor=4.0, baseline_samples=64,
                           window_samples=64, min_budget_ns=10,
                           tail_dir=str(tmp_path))
    wd.tail_tracing = True

    with wd.tail_capture(label) as tr:
        # compliant baseline, then a quadratically degrading tail —
        # the forced superlinear path of a constant-delay plan
        with obs.span("enumerate.block", plan=label):
            for _ in range(64):
                wd.observe(label, 100, 1, "constant-delay")
            for i in range(64 * 2):
                wd.observe(label, 100 * (1 + i * i), 1, "constant-delay")
    trace_id = tr.context.trace_id
    assert trace_id

    events = event_log().recent(name="guarantee.violation")
    assert events and events[-1]["plan"] == label
    assert events[-1]["trace_id"] == trace_id

    # the violation's trace_id is the p99 exemplar on the delay sketch
    sketch = registry().sketch("delay.plan." + label)
    assert sketch is not None
    exemplar = sketch.exemplar(0.99)
    assert exemplar is not None and exemplar[1] == trace_id

    # ... and resolves to a retained, schema-clean trace file
    path = wd.retained_trace_path(trace_id)
    assert path is not None and os.path.exists(path)
    assert path == str(tmp_path / f"trace-{trace_id}.json")
    assert lint_chrome_trace_file(path) == []

    # ... and analyze flags the operator that broke its contract
    db = random_database({"R": 2, "S": 2}, 30, 200, seed=1)
    analysis = analyze(q, db)
    assert "enumerate" in analysis["flagged"]
    flagged_row = next(r for r in analysis["rows"]
                       if r["operator"] == "enumerate")
    assert "guarantee.violation" in flagged_row["note"]
