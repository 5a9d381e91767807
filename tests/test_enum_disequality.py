"""Tests for ACQ!= enumeration (Theorem 4.20)."""

import pytest

from repro.data import generators
from repro.data.database import Database
from repro.enumeration.disequality import (
    DisequalityEnumerator,
    FallbackDisequalityEnumerator,
    enumerate_acq_disequalities,
)
from repro.errors import NotFreeConnexError, UnsupportedQueryError
from repro.eval.naive import evaluate_cq_naive
from repro.logic.parser import parse_cq

# columnar runs repeat every test at block size 7 (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("default_block_size")

SUPPORTED = [
    "Q(x, y) :- R(x, z), S(y, w), x != y",         # free-free
    "Q(x, y) :- R(x, y), x != y",                  # same-atom
    "Q(x) :- R(x, z), z != x",                     # quantified, single host
    "Q(x, y) :- R(x, z), S(y, w), x != y, x != 3", # with a constant
    "Q(x) :- R(x, z), z != x, z != 0",             # two diseqs on z
]


def test_supported_fragment_matches_naive():
    for text in SUPPORTED:
        q = parse_cq(text)
        for seed in range(5):
            db = generators.random_database({"R": 2, "S": 2}, 6, 14, seed=seed)
            enum = DisequalityEnumerator(q, db)
            got = list(enum)
            assert len(got) == len(set(got)), (text, seed)
            assert set(got) == evaluate_cq_naive(q, db), (text, seed)


def test_witness_tables_keep_k_plus_one_values():
    # z is quantified, hosted by R alone, and compared against the free w
    # of another atom: the genuine witness-table case
    q = parse_cq("Q(x, w) :- R(x, z), B(w), z != w")
    db = Database.from_relations({
        "R": [(1, v) for v in range(10)] + [(2, 5)],
        "B": [(5,), (6,)],
    })
    enum = DisequalityEnumerator(q, db)
    enum.preprocess()
    (constraint,) = enum._constraints
    # k = 1 disequality -> at most 2 representative witnesses per group
    assert all(len(ws) <= 2 for ws in constraint.witnesses.values())
    assert set(enum) == evaluate_cq_naive(q, db)


def test_same_atom_disequality_has_no_witness_constraint():
    q = parse_cq("Q(x) :- R(x, z), z != x")
    db = Database.from_relations({"R": [(1, 1), (1, 2), (2, 2)]})
    enum = DisequalityEnumerator(q, db)
    enum.preprocess()
    assert enum._constraints == []  # handled during materialisation
    assert set(enum) == {(1,)}


def test_group_with_only_forbidden_witness_is_rejected():
    q = parse_cq("Q(x) :- R(x, z), z != x")
    db = Database.from_relations({"R": [(1, 1), (2, 7)]})
    assert set(DisequalityEnumerator(q, db)) == {(2,)}


def test_rejects_non_free_connex_core():
    db = generators.random_database({"A": 2, "B": 2}, 5, 10, seed=0)
    with pytest.raises(NotFreeConnexError):
        DisequalityEnumerator(parse_cq("Q(x, y) :- A(x, z), B(z, y), x != y"), db)


def test_rejects_order_comparisons():
    db = generators.random_database({"R": 2}, 5, 10, seed=0)
    enum = DisequalityEnumerator(parse_cq("Q(x) :- R(x, y), x < y"), db)
    with pytest.raises(UnsupportedQueryError):
        enum.preprocess()


def test_unsupported_shape_falls_back():
    # z occurs in two atoms and is compared against a free variable it
    # shares no atom with: outside the witness-table fragment
    q = parse_cq("Q(x, u) :- R(x, z), S(z, w), B(u), z != u")
    db = generators.random_database({"R": 2, "S": 2, "B": 1}, 6, 12, seed=1)
    enum = enumerate_acq_disequalities(q, db)
    assert isinstance(enum, FallbackDisequalityEnumerator)
    got = list(enum)
    assert set(got) == evaluate_cq_naive(q, db)
    assert len(got) == len(set(got))


def test_fallback_is_always_correct():
    queries = [
        "Q(x, y) :- R(x, z), S(z, y), x != y",
        "Q(x) :- R(x, y), S(y, z), y != z",
    ]
    for text in queries:
        q = parse_cq(text)
        for seed in range(4):
            db = generators.random_database({"R": 2, "S": 2}, 6, 12, seed=seed)
            got = list(FallbackDisequalityEnumerator(q, db))
            assert set(got) == evaluate_cq_naive(q, db)
            assert len(got) == len(set(got))


def test_boolean_with_disequality():
    q = parse_cq("Q() :- R(x, z), z != x")
    db_yes = Database.from_relations({"R": [(1, 2)]})
    db_no = Database.from_relations({"R": [(1, 1), (2, 2)]})
    assert list(DisequalityEnumerator(q, db_yes)) == [()]
    assert list(DisequalityEnumerator(q, db_no)) == []


def test_everything_filtered():
    q = parse_cq("Q(x, y) :- R(x, z), S(y, w), x != y")
    db = Database.from_relations({"R": [(1, 5)], "S": [(1, 6)]})
    assert list(DisequalityEnumerator(q, db)) == []
