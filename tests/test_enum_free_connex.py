"""Unit + randomized tests for the constant-delay free-connex engine
(Theorem 4.6) — the paper's headline enumeration algorithm."""

import random

import pytest

from repro.data import generators
from repro.data.database import Database
from repro.data.relation import Relation
from repro.enumeration.free_connex import FreeConnexEnumerator, derive_free_join
from repro.errors import NotFreeConnexError, UnsupportedQueryError
from repro.eval.naive import cq_is_satisfiable_naive, evaluate_cq_naive
from repro.logic.parser import parse_cq

# columnar runs repeat every test at block size 7 (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("default_block_size")

FREE_CONNEX_QUERIES = [
    "Q(x) :- R(x, z), S(z, y)",
    "Q(x, y) :- R(x, w), S(y, u), B(u)",          # Example 4.5
    "Q(x, y, z) :- R(x, y), S(y, z)",             # quantifier-free
    "Q(x1, x2, x3) :- R(x1, x2), S(x2, x3, y3), R(x1, y1), T(y3, y4, y5), S2(x2, y2)",
    "Q(a) :- T(a, b, c), R(b, x), S(c, y)",
    "Q() :- R(x, z), S(z, y)",
]

SCHEMA = {"R": 2, "S": 2, "T": 3, "B": 1, "S2": 2}


def schema_for(q):
    arities = q.relation_arities()
    return {n: a for n, a in arities.items()}


def test_matches_naive_randomized():
    for text in FREE_CONNEX_QUERIES:
        q = parse_cq(text)
        assert q.is_free_connex(), text
        for seed in range(5):
            db = generators.random_database(schema_for(q), 6, 14, seed=seed)
            got = list(FreeConnexEnumerator(q, db))
            assert len(got) == len(set(got)), (text, seed)
            assert set(got) == evaluate_cq_naive(q, db), (text, seed)


def test_boolean_queries():
    q = parse_cq("Q() :- R(x, z), S(z, y)")
    for seed in range(5):
        db = generators.random_database({"R": 2, "S": 2}, 4, 6, seed=seed)
        got = list(FreeConnexEnumerator(q, db))
        assert (got == [()]) == cq_is_satisfiable_naive(q, db)


def test_rejects_non_free_connex():
    db = generators.random_database({"A": 2, "B": 2}, 4, 8, seed=0)
    with pytest.raises(NotFreeConnexError):
        list(FreeConnexEnumerator(parse_cq("Pi(x, y) :- A(x, z), B(z, y)"), db))


def test_rejects_cyclic():
    db = generators.random_database({"R": 2, "S": 2, "T": 2}, 4, 8, seed=0)
    with pytest.raises(NotFreeConnexError):
        FreeConnexEnumerator(parse_cq("Q(x) :- R(x, y), S(y, z), T(z, x)"), db)


def test_rejects_comparisons():
    db = generators.random_database({"R": 2}, 4, 8, seed=0)
    with pytest.raises(UnsupportedQueryError):
        FreeConnexEnumerator(parse_cq("Q(x) :- R(x, y), x != y"), db)


def test_empty_answer_set():
    db = Database([Relation("R", 2, [(1, 2)]), Relation("S", 2, [(9, 9)])])
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    assert list(FreeConnexEnumerator(q, db)) == []


def test_empty_quantified_component_kills_all_answers():
    """Regression: a fully quantified S-component whose relations reduce
    to empty contributes a zero-ary empty relation to the derived join;
    the enumerator must emit nothing (the old `nonempty` branch re-tested
    the unfiltered list and could never take effect)."""
    # component over x is live; the fully quantified component {u, w}
    # joins T with U on w, and U is empty -> no answers at all
    db = Database([
        Relation("R", 1, [(1,), (2,)]),
        Relation("T", 2, [(7, 8)]),
        Relation("U", 1, []),
    ])
    q = parse_cq("Q(x) :- R(x), T(u, w), U(w)")
    enum = FreeConnexEnumerator(q, db)
    assert list(enum) == []
    # the empty verdict must also survive inside derive_free_join
    assert derive_free_join(q, db) is None


def test_nonempty_quantified_component_is_filtered_not_joined():
    """The mirror case: the quantified component is satisfiable, so its
    verdict must not block the live component's answers."""
    db = Database([
        Relation("R", 1, [(1,), (2,)]),
        Relation("T", 2, [(7, 8)]),
        Relation("U", 1, [(8,)]),
    ])
    q = parse_cq("Q(x) :- R(x), T(u, w), U(w)")
    assert set(FreeConnexEnumerator(q, db)) == {(1,), (2,)}


def test_derived_join_projects_onto_free_variables(small_db):
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    derived = derive_free_join(q, small_db)
    for rel in derived:
        assert set(rel.variables) <= q.free_variables()
    # their join is exactly phi(D)
    union_vars = {v for r in derived for v in r.variables}
    assert union_vars == set(q.free_variables())


def test_derived_join_figure1(figure1_query):
    """Figure 1: after the bottom-up filtering only a quantifier-free join
    over the free variables remains (the R(x1,x2) join S'(x2,x3) step)."""
    db = generators.random_database(schema_for(figure1_query), 5, 15, seed=4)
    derived = derive_free_join(figure1_query, db)
    edges = {frozenset(v.name for v in r.variables) for r in derived}
    # contains the pi_{x2,x3}(S) relation the paper calls S'
    assert frozenset({"x2", "x3"}) in edges
    assert frozenset({"x1", "x2"}) in edges


def test_preprocessing_is_idempotent():
    db = generators.random_database({"R": 2, "S": 2}, 5, 10, seed=1)
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    enum = FreeConnexEnumerator(q, db)
    enum.preprocess()
    enum.preprocess()
    assert set(enum) == evaluate_cq_naive(q, db)


def test_large_instance_exact_count():
    db = generators.random_database({"R": 2, "S": 2, "B": 1}, 40, 300, seed=9)
    q = parse_cq("Q(x, y) :- R(x, w), S(y, u), B(u)")
    got = list(FreeConnexEnumerator(q, db))
    assert len(got) == len(set(got))
    assert set(got) == evaluate_cq_naive(q, db)


def test_self_join_query():
    """Free-connex engine on a query with a self join (R used twice)."""
    q = parse_cq("Q(x) :- R(x, y), R(y, z)")
    for seed in range(4):
        db = generators.random_database({"R": 2}, 6, 14, seed=seed)
        assert set(FreeConnexEnumerator(q, db)) == evaluate_cq_naive(q, db)


def test_constants_in_atoms():
    db = Database.from_relations({"R": [(1, 2), (1, 3), (2, 3)]})
    q = parse_cq("Q(y) :- R(1, y)")
    assert set(FreeConnexEnumerator(q, db)) == {(2,), (3,)}
