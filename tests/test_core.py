"""Tests for the classifier and the planner — the paper's map as code."""

import pytest

from repro.core.classify import classify, plan_for
from repro.core.planner import answer, count, decide, enumerate_answers
from repro.core.report import ComplexityReport, TaskVerdict
from repro.data import generators
from repro.data.database import Database
from repro.errors import UnsupportedQueryError
from repro.eval.naive import evaluate_cq_naive
from repro.logic.fo import Exists, ForAll, RelAtom, SOAtom, SecondOrderVariable
from repro.logic.parser import parse_cq, parse_query


def test_classify_free_connex_acq():
    report = classify(parse_cq("Q(x) :- R(x, z), S(z, y)"))
    assert report.query_class == "ACQ"
    assert report.fact("free_connex") is True
    assert report.fact("quantified_star_size") == 1
    assert report.verdict("enumerate").tractable is True
    assert "4.6" in report.verdict("enumerate").theorem
    assert report.verdict("decide").tractable is True
    assert report.verdict("count").tractable is True


def test_classify_bmm_query():
    report = classify(parse_cq("Pi(x, y) :- A(x, z), B(z, y)"))
    assert report.fact("free_connex") is False
    assert report.verdict("enumerate").tractable is False
    assert "Mat-Mul" in report.verdict("enumerate").bound
    assert report.verdict("count").tractable is True  # star size 2


def test_classify_cyclic_cq():
    report = classify(parse_cq("Q(x) :- R(x, y), S(y, z), T(z, x)"))
    assert report.query_class == "cyclic CQ"
    assert report.verdict("enumerate").tractable is False


def test_classify_order_comparisons():
    report = classify(parse_cq("Q(x) :- R(x, y), x < y"))
    assert report.query_class.endswith("<")
    assert report.verdict("decide").tractable is False
    assert "4.15" in report.verdict("decide").theorem


def test_classify_disequality_query():
    report = classify(parse_cq("Q(x) :- R(x, z), z != x"))
    assert report.query_class == "ACQ!="
    assert report.verdict("enumerate").tractable is True
    assert "4.20" in report.verdict("enumerate").theorem


def test_classify_ucq_free_connex():
    ucq = parse_query(
        "Q(x, y, w) :- R1(x, z), R2(z, y), R3(x, w)\n"
        "Q(x, z, y) :- R1(x, z), R2(z, y)")
    report = classify(ucq)
    assert report.fact("free_connex_ucq") is True
    assert report.verdict("enumerate").tractable is True
    assert "4.13" in report.verdict("enumerate").theorem


def test_classify_ncq():
    beta = classify(parse_query("Q() :- not R(x, y), not S(y, z)"))
    assert beta.fact("beta_acyclic") is True
    assert beta.verdict("decide").tractable is True
    hard = classify(parse_query("Q() :- not R(x, y), not S(y, z), not T(z, x)"))
    assert hard.fact("beta_acyclic") is False
    assert hard.verdict("decide").tractable is False


def test_classify_fo_prefixes():
    X = SecondOrderVariable("X", 1)
    sigma0 = SOAtom(X, [0])
    report = classify(sigma0)
    assert report.fact("prefix_class") == "Sigma_0^rel"
    assert report.verdict("count").tractable is True
    assert report.verdict("enumerate").tractable is True

    sigma1 = Exists(["x"], SOAtom(X, ["x"]))
    report1 = classify(sigma1)
    assert "FPRAS" in report1.verdict("count").bound

    pi1 = ForAll(["x"], SOAtom(X, ["x"]))
    report2 = classify(pi1)
    assert report2.verdict("enumerate").tractable is False


def test_classify_rejects_unknown():
    with pytest.raises(TypeError):
        classify(42)


def test_report_rendering():
    report = classify(parse_cq("Q(x) :- R(x, z), S(z, y)"))
    text = report.render()
    assert "free_connex" in text and "Theorem" in text
    assert str(report) == text
    with pytest.raises(KeyError):
        report.verdict("no-such-task")


# ------------------------------------------------------------------ planner


def test_planner_routes_all_cq_shapes():
    db = generators.random_database({"R": 2, "S": 2, "T": 2, "A": 2, "B": 2},
                                    6, 14, seed=0)
    shapes = [
        "Q(x) :- R(x, z), S(z, y)",            # free-connex
        "Q(x, y) :- A(x, z), B(z, y)",         # linear delay
        "Q(x) :- R(x, y), S(y, z), T(z, x)",   # cyclic -> naive
        "Q(x) :- R(x, z), z != x",             # disequality engine
        "Q(x, y) :- R(x, y), x < y",           # fallback
    ]
    for text in shapes:
        q = parse_cq(text)
        got = list(enumerate_answers(q, db))
        assert len(got) == len(set(got)), text
        assert set(got) == evaluate_cq_naive(q, db), text
        assert answer(q, db) == evaluate_cq_naive(q, db), text


def test_planner_count_routes():
    db = generators.random_database({"R": 2, "S": 2}, 6, 14, seed=1)
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    assert count(q, db) == len(evaluate_cq_naive(q, db))
    q2 = parse_cq("Q(x) :- R(x, y), x != y")
    assert count(q2, db) == len(evaluate_cq_naive(q2, db))


def test_planner_decide():
    db = Database.from_relations({"R": [(1, 2)], "S": [(2, 3)]})
    assert decide(parse_cq("Q() :- R(x, y), S(y, z)"), db)
    assert not decide(parse_cq("Q() :- R(x, x)"), db)


def test_plan_memo_is_keyed_on_the_ordered_form():
    q = parse_cq("Q(x, y) :- E(x, y), E(x, z), E(w, y), E(w, z)")
    plan = plan_for(q)
    assert plan_for(parse_cq(repr(q))) is plan
    swapped = parse_cq("Q(x, y) :- E(x, z), E(x, y), E(w, y), E(w, z)")
    assert swapped == q                    # equal as sets of atoms,
    assert plan_for(swapped) is not plan   # but planned on its own


@pytest.mark.parametrize("text, route, core_atoms", [
    # cyclic; the core E(x, y) is free-connex
    ("Q(x, y) :- E(x, y), E(x, z), E(w, y), E(w, z)", "free-connex", 1),
    # cyclic; the core E(x, z), E(z, y) is acyclic, not free-connex
    ("Q(x, y) :- E(x, z), E(z, y), E(x, w), E(w, y)", "acyclic", 2),
    # cyclic with a cyclic proper core: naive evaluation of the triangle
    ("Q() :- E(x, y), E(y, z), E(z, x), E(x, w)", "cyclic", 3),
    # the triangle is its own core
    ("Q() :- E(x, y), E(y, z), E(z, x)", "cyclic", None),
    # already free-connex: nothing to gain from the core
    ("Q(x, y, z) :- E(x, y), E(x, z)", "free-connex", None),
    # comparisons block the core analysis
    ("Q(x, y) :- E(x, y), E(x, z), E(w, y), E(w, z), x != z",
     "disequalities", None),
])
def test_plan_runs_the_core_exactly_when_the_verdict_comes_from_it(
        text, route, core_atoms):
    q = parse_cq(text)
    plan = plan_for(q)
    assert plan.route == route
    assert plan.on_core == (core_atoms is not None)
    if core_atoms is None:
        assert plan.query.atoms == q.atoms  # the query as written
    else:
        assert len(plan.query.atoms) == core_atoms
        assert plan.query.head == q.head
        assert plan.span_attrs() == {"route": route,
                                     "core_atoms": core_atoms}
    db = generators.random_database({"E": 2}, 6, 14, seed=2)
    expect = evaluate_cq_naive(q, db)
    got = list(enumerate_answers(q, db))
    assert len(got) == len(set(got)) and set(got) == expect
    assert count(q, db) == len(expect)
    if q.is_boolean():
        assert decide(q, db) == bool(expect)


def test_planner_ucq_and_ncq():
    db = generators.random_database({"R1": 2, "R2": 2}, 5, 10, seed=2)
    ucq = parse_query("Q(x) :- R1(x, y); Q(x) :- R2(x, y)")
    expected = evaluate_cq_naive(ucq[0], db) | evaluate_cq_naive(ucq[1], db)
    assert answer(ucq, db) == expected
    assert count(ucq, db) == len(expected)

    ncq = parse_query("Q(x) :- not R1(x, y)")
    got = answer(ncq, db)
    from repro.csp.ncq_solver import ncq_answers

    assert got == ncq_answers(ncq, db)


def test_planner_fo():
    db = Database.from_relations({"R": [(1, 2), (2, 3)]})
    f = Exists(["y"], RelAtom("R", ["x", "y"]))
    assert answer(f, db) == {(1,), (2,)}
    assert count(f, db) == 2


def test_planner_fo_so_counting():
    X = SecondOrderVariable("X", 1)
    db = Database.from_relations({"P": [(0,)]})
    db.add_domain_values([1])
    assert count(SOAtom(X, [0]), db) == 2  # X contains (0,), (1,) free
    with pytest.raises(UnsupportedQueryError):
        list(enumerate_answers(SOAtom(X, [0]), db))
