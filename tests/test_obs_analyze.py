"""``repro analyze`` — estimated-vs-actual introspection.

Covers the analysis backend (per-operator rows, scale checks, flag
semantics), the text rendering and the CLI subcommand.  The flag
tests break the constant-delay check on purpose (a zero growth slack),
so any measured p99 counts as growth.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.plancache import clear_plan_cache
from repro.data.generators import random_database
from repro.logic.parser import parse_query
from repro.obs import analyze as analyze_mod
from repro.obs.analyze import FLAG, INFO, OK, analyze, delay_percentile, \
    render_text

FREE_CONNEX = "Q(x) :- R(x, z), S(z, y)"
ACYCLIC_ONLY = "Q(x, y) :- R(x, z), S(z, y)"
# cyclic, with the one-atom free-connex core E(x, y)
CORE_ONE_ATOM = "Q(x, y) :- E(x, y), E(x, z), E(w, y), E(w, z)"
# cyclic, with the two-atom free-connex core R(x, z), S(z, y)
CORE_TWO_ATOMS = "Q(x, z) :- R(x, z), S(z, y), R(x, w), S(w, y)"


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_plan_cache()
    yield
    clear_plan_cache()
    obs.disable()


@pytest.fixture
def no_delay_slack(monkeypatch):
    """Any p99 on the doubled instance now breaks the constant-delay
    contract, so a healthy free-connex run is flagged."""
    monkeypatch.setattr(analyze_mod, "DELAY_SLACK", 0)


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


def test_delay_percentile_weighs_each_block_by_its_answers():
    """p99 of the per-answer share ``gap_ns // answers``, each block
    counted ``answers`` times: one slow single-answer block among 990
    fast answers stays below p99; at weight 20 it is the p99."""
    fast = [(10_000, 10)] * 99
    assert delay_percentile(fast + [(5_000_000, 1)], 0.99) == 1_000
    assert delay_percentile(fast + [(5_000_000 * 20, 20)], 0.99) \
        == 5_000_000
    assert delay_percentile([], 0.99) == 0


def test_delay_growth_flags_enumerate(no_delay_slack):
    q = parse_query(FREE_CONNEX)
    analysis = analyze(q, size=600, seed=2)
    row = next(r for r in analysis["rows"] if r["operator"] == "enumerate")
    assert row["status"] == FLAG
    assert "constant-delay contract broken" in row["note"]
    assert "enumerate" in analysis["flagged"]


# --------------------------------------------------------- text rendering


def test_render_text_is_a_complete_table():
    q = parse_query(FREE_CONNEX)
    analysis = analyze(q, size=600, seed=2)
    text = render_text(analysis)
    assert "operator" in text and "expected" in text and "actual" in text
    for r in analysis["rows"]:
        assert r["operator"] in text
    assert "all operators within their predicted class" in text


def test_render_text_names_the_flagged_operators(no_delay_slack):
    q = parse_query(FREE_CONNEX)
    text = render_text(analyze(q, size=600, seed=2))
    assert "FLAGGED: enumerate" in text


# -------------------------------------------------------------------- CLI


def test_cli_analyze_prints_table(capsys):
    from repro.cli import main

    rc = main(["analyze", FREE_CONNEX, "--size", "500", "--seed", "2"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "enumerate" in stdout and "constant-delay" in stdout


def test_cli_analyze_strict_fails_on_flag(no_delay_slack, capsys):
    from repro.cli import main

    rc = main(["analyze", FREE_CONNEX, "--size", "600", "--strict"])
    assert rc == 1
    assert "FLAGGED: enumerate" in capsys.readouterr().out
