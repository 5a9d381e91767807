"""Tests for the counting engines (Theorems 4.21 and 4.28)."""

import pytest

from repro import obs
from repro.counting.acq_count import (
    count_acq,
    count_cq_naive,
    count_full_acyclic_join,
    count_quantifier_free_acyclic,
    derive_counting_join,
)
from repro.counting.weighted import WeightFunction, sum_of_weights
from repro.data import generators
from repro.data.database import Database
from repro.engine.columnar import default_dictionary
from repro.errors import NotAcyclicError, UnsupportedQueryError
from repro.eval.join import VarRelation
from repro.eval.naive import evaluate_cq_naive
from repro.logic.parser import parse_cq
from repro.logic.terms import Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")


def test_count_full_acyclic_join_basics():
    r = VarRelation((x, y), [(1, 2), (2, 3)])
    s = VarRelation((y, z), [(2, 9), (3, 8), (3, 7)])
    assert count_full_acyclic_join([r, s]) == 3


def test_count_full_acyclic_join_weighted():
    r = VarRelation((x,), [(1,), (2,)])
    s = VarRelation((y,), [(10,)])
    w = WeightFunction({1: 2, 2: 3, 10: 5})
    # solutions (1,10) and (2,10): 2*5 + 3*5
    assert count_full_acyclic_join([r, s], w) == 25


def test_count_full_join_empty_and_unit():
    assert count_full_acyclic_join([]) == 1
    assert count_full_acyclic_join([VarRelation((), [()])]) == 1
    assert count_full_acyclic_join([VarRelation(())]) == 0


def test_quantifier_free_counting_randomized():
    queries = [
        "Q(x, y, z) :- R(x, y), S(y, z)",
        "Q(x, y, z, w) :- R(x, y), S(y, z), T(z, w)",
        "Q(a, b, c) :- T3(a, b, c), R(a, b)",
    ]
    for text in queries:
        q = parse_cq(text)
        for seed in range(4):
            db = generators.random_database(
                {"R": 2, "S": 2, "T": 2, "T3": 3}, 6, 15, seed=seed)
            assert count_quantifier_free_acyclic(q, db) == len(
                evaluate_cq_naive(q, db)), (text, seed)


def test_quantifier_free_rejects_projection():
    db = generators.random_database({"R": 2}, 4, 8, seed=0)
    with pytest.raises(UnsupportedQueryError):
        count_quantifier_free_acyclic(parse_cq("Q(x) :- R(x, y)"), db)


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_count_acq_randomized_star_sizes(engine):
    queries = [
        "Q(x) :- R(x, z), S(z, y)",                  # star 1
        "Q(x, y) :- R(x, z), S(z, y)",               # star 2 (Pi)
        "Q(x, y, w) :- R(x, z), S(z, y), T(z, w)",   # star 3
        "Q(x1, x2, x3) :- R(x1, x2), S(x2, x3, y3), R(x1, y1), T2(y3, y4, y5), S2(x2, y2)",
        # no atom holds all free vertices, and the atoms that hold them
        # share no variable
        "Q(x, w) :- R(x, y), S(y, z), T(z, w)",
        # two atoms hold the free vertices; a third has a private
        # existential
        "Q(x, w) :- R(x, y), S(y, w), T(y, u)",
        # three atoms hold the free vertices, joined by an existential chain
        "Q(x, y, w) :- R(x, z), S(z, u), T(u, y), S2(u, w)",
    ]
    for text in queries:
        q = parse_cq(text)
        head = [v.name for v in q.head]
        for seed in range(5):
            db = generators.random_database(
                {"R": 2, "S": q.relation_arities().get("S", 2), "T": 2,
                 "T2": 3, "S2": 2}, 6, 14, seed=seed)
            answers = evaluate_cq_naive(q, db)
            assert count_acq(q, db, engine=engine) == len(answers), (text, seed)
            # each derived relation is the answers' projection onto it
            for rel in derive_counting_join(q, db, engine=engine) or []:
                pos = [head.index(v.name) for v in rel.variables]
                assert set(rel) == {tuple(a[p] for p in pos)
                                    for a in answers}, (text, seed, rel)


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_component_projection_stays_within_the_database(engine):
    """No atom holds both free vertices of ``Q(x, w)``, so the component
    is joined along its join tree; on a diagonal no intermediate
    outgrows the database (a cross product of the atoms holding x and w
    would have 500 * 500 rows)."""
    diagonal = [(i, i) for i in range(500)]
    db = Database.from_relations({"R": diagonal, "S": diagonal,
                                  "T": diagonal})
    q = parse_cq("Q(x, w) :- R(x, y), S(y, z), T(z, w)")
    with obs.capture() as tracer:
        assert count_acq(q, db, engine=engine) == 500
    spans = [s for s in tracer.spans if s.name == "yannakakis.join_project"]
    assert spans
    assert all(s.attrs["rows_max"] <= db.size() for s in spans)


def test_count_acq_weighted_matches_reference():
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    for seed in range(4):
        db = generators.random_database({"R": 2, "S": 2}, 5, 12, seed=seed)
        w = WeightFunction(lambda v: v + 1)
        got = count_acq(q, db, w)
        expected = sum_of_weights(evaluate_cq_naive(q, db), w)
        assert got == expected, seed


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_weights_are_read_only_on_the_counted_database(engine):
    # the columnar dictionary is shared across databases; a weight
    # defined on this database's values must not see another's
    default_dictionary().encode("a value of another database")
    db = generators.random_database({"R": 2, "S": 2}, 5, 12, seed=1)
    w = WeightFunction(lambda v: v + 1)
    for text in ("Q(x, y, z) :- R(x, y), S(y, z)",
                 "Q(x, y) :- R(x, z), S(z, y)"):
        q = parse_cq(text)
        expected = sum_of_weights(evaluate_cq_naive(q, db), w)
        assert count_acq(q, db, w, engine=engine) == expected, text


def test_count_acq_boolean():
    q = parse_cq("Q() :- R(x, z), S(z, y)")
    db = Database.from_relations({"R": [(1, 2)], "S": [(2, 3)]})
    assert count_acq(q, db) == 1
    db2 = Database.from_relations({"R": [(1, 2)], "S": [(9, 3)]})
    assert count_acq(q, db2) == 0


def test_count_acq_rejects_cyclic_and_comparisons():
    db = generators.random_database({"R": 2, "S": 2, "T": 2}, 4, 8, seed=1)
    with pytest.raises(NotAcyclicError):
        count_acq(parse_cq("Q(x) :- R(x, y), S(y, z), T(z, x)"), db)
    with pytest.raises(UnsupportedQueryError):
        count_acq(parse_cq("Q(x) :- R(x, y), x != y"), db)


def test_derive_counting_join_unsatisfiable():
    db = Database.from_relations({"R": [(1, 2)], "S": [(9, 9)]})
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    assert derive_counting_join(q, db) is None


def test_derived_join_covers_free_variables():
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    db = generators.random_database({"R": 2, "S": 2}, 5, 10, seed=3)
    derived = derive_counting_join(q, db)
    if derived is not None:
        covered = {v for r in derived for v in r.variables}
        assert covered == set(q.free_variables())


def test_naive_counting_weighted():
    q = parse_cq("Q(x) :- R(x, y)")
    db = Database.from_relations({"R": [(1, 2), (2, 3)]})
    assert count_cq_naive(q, db) == 2
    assert count_cq_naive(q, db, WeightFunction({1: 10, 2: 20})) == 30


def test_big_counts_are_exact_integers():
    """No float drift: counts on a cartesian-ish query are exact."""
    q = parse_cq("Q(a, b) :- R(a, u), S(b, v)")
    db = generators.random_database({"R": 2, "S": 2}, 30, 200, seed=4)
    assert count_acq(q, db) == len(evaluate_cq_naive(q, db))


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_counts_past_int64_are_exact(engine):
    """Seven relations of 1,000 rows joined on one value: 10^21
    answers, past int64.  The product of the row counts reaches the
    int64 kernel's bound, so the columnar engine counts exactly too."""
    q = parse_cq("Q(a, b0, b1, b2, b3, b4, b5, b6) :- "
                 + ", ".join(f"R{i}(a, b{i})" for i in range(7)))
    db = Database.from_relations(
        {f"R{i}": [(0, j) for j in range(1000)] for i in range(7)})
    assert count_acq(q, db, engine=engine) == 10 ** 21


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_integral_weighted_counts_past_2_53_are_exact(engine):
    """A star of three 999-row relations weighted by v * v + 1: the
    weighted count is about 7.4e25, past float64's exact integers, so
    the columnar engine leaves its float64 kernel for the exact DP."""
    q = parse_cq("Q(a, b0, b1, b2) :- R0(a, b0), R1(a, b1), R2(a, b2)")
    db = Database.from_relations(
        {f"R{i}": [(1, j) for j in range(1, 1000)] for i in range(3)})
    weights = WeightFunction(lambda v: v * v + 1)
    expected = 2 * (sum(j * j + 1 for j in range(1, 1000))) ** 3
    assert count_acq(q, db, weights, engine=engine) == expected


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_integral_weighted_counts_below_2_53_stay_in_the_float_kernel(
        engine):
    """Three 50-row relations weighted up to 1,000: the bound on the
    sums (the row counts' product times the largest weight to the four
    charged variables, 1.25e17) passes 2^53, but the total does not, so
    the columnar engine counts in its float64 kernel and returns the
    tuple engine's exact int."""
    q = parse_cq("Q(x, y, z, w) :- R(x, y), S(y, z), T(z, w)")
    db = Database.from_relations(
        {name: [(i % 10, i // 5) for i in range(50)] for name in "RST"})
    weights = WeightFunction(lambda v: 1000 - 19 * v)
    with obs.capture() as tr:
        total = count_acq(q, db, weights, engine=engine)
    assert [s.attrs["backend"] for s in tr.spans
            if s.name == "count.message_passing"] == [
                "columnar_weighted" if engine == "columnar" else "tuple"]
    assert type(total) is int and total < 2 ** 53
    assert total == count_acq(q, db, weights, engine="tuple") \
        == count_cq_naive(q, db, weights)


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_negative_integral_weighted_counts_past_2_53_are_exact(engine):
    """Weights of both signs can cancel a rounded sum out of the total,
    so they keep the bound: past it the columnar engine recounts with
    the exact DP, and equals the tuple engine."""
    q = parse_cq("Q(a, b0, b1, b2) :- R0(a, b0), R1(a, b1), R2(a, b2)")
    db = Database.from_relations(
        {f"R{i}": [(1, j) for j in range(1, 1000)] for i in range(3)})
    weights = WeightFunction(
        lambda v: v * v + 1 if v % 2 else -(v * v + 1))
    signed = sum(j * j + 1 if j % 2 else -(j * j + 1)
                 for j in range(1, 1000))
    total = count_acq(q, db, weights, engine=engine)
    assert abs(total) > 2 ** 53
    assert total == count_acq(q, db, weights, engine="tuple") \
        == 2 * signed ** 3
