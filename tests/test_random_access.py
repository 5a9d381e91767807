"""Tests for random-access / random-order enumeration (the [23]
extension the paper's Section 4.3 points at)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import generators
from repro.data.database import Database
from repro.engine import use_engine
from repro.enumeration import random_access
from repro.enumeration.random_access import RandomAccessEnumerator
from repro.errors import NotFreeConnexError, UnsupportedQueryError
from repro.eval.naive import evaluate_cq_naive
from repro.logic.parser import parse_cq
from tests.conftest import free_connex_instance

# columnar runs repeat every test at block size 7 (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("default_block_size")

QUERIES = [
    "Q(x) :- R(x, z), S(z, y)",
    "Q(x, y) :- R(x, w), S(y, u), B(u)",
    "Q(x, y, z) :- R(x, y), S(y, z)",
    "Q(a) :- T(a, b, c), R(b, x), S(c, y)",
]


def make_db(seed):
    return generators.random_database({"R": 2, "S": 2, "B": 1, "T": 3},
                                      6, 14, seed=seed)


def test_count_and_in_order_match_naive():
    for text in QUERIES:
        q = parse_cq(text)
        for seed in range(4):
            db = make_db(seed)
            ra = RandomAccessEnumerator(q, db)
            truth = evaluate_cq_naive(q, db)
            assert ra.count() == len(ra) == len(truth), (text, seed)
            inorder = list(ra.in_order())
            assert len(inorder) == len(set(inorder))
            assert set(inorder) == truth, (text, seed)


def test_getitem_and_bounds():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    db = make_db(1)
    ra = RandomAccessEnumerator(q, db)
    if ra.count():
        assert ra[0] == ra.answer(0)
        assert ra[ra.count() - 1] == ra.answer(ra.count() - 1)
    with pytest.raises(IndexError):
        ra.answer(ra.count())
    with pytest.raises(IndexError):
        ra.answer(-1)


def test_answers_are_distinct_across_indexes():
    q = parse_cq("Q(x, y, z) :- R(x, y), S(y, z)")
    db = make_db(2)
    ra = RandomAccessEnumerator(q, db)
    seen = {ra.answer(j) for j in range(ra.count())}
    assert len(seen) == ra.count()


def test_random_order_is_a_permutation():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    db = make_db(3)
    ra = RandomAccessEnumerator(q, db)
    perm1 = list(ra.random_order(seed=1))
    perm2 = list(ra.random_order(seed=2))
    assert sorted(perm1) == sorted(list(ra.in_order()))
    assert len(perm1) == len(set(perm1))
    if ra.count() > 5:
        assert perm1 != perm2 or ra.count() <= 1  # different seeds differ


def test_sampling():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    db = make_db(4)
    ra = RandomAccessEnumerator(q, db)
    if ra.count() >= 3:
        sample = ra.sample(3, seed=1, replacement=False)
        assert len(sample) == len(set(sample)) == 3
        with_repl = ra.sample(10, seed=1, replacement=True)
        assert len(with_repl) == 10
        assert set(with_repl) <= set(ra.in_order())
    with pytest.raises(ValueError):
        ra.sample(ra.count() + 1, replacement=False)


def test_boolean_query():
    q = parse_cq("Q() :- R(x, z), S(z, y)")
    db = Database.from_relations({"R": [(1, 2)], "S": [(2, 3)]})
    ra = RandomAccessEnumerator(q, db)
    assert ra.count() == 1
    assert ra.answer(0) == ()
    db2 = Database.from_relations({"R": [(1, 2)], "S": [(9, 3)]})
    assert RandomAccessEnumerator(q, db2).count() == 0


def test_empty_answer_set():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    db = Database.from_relations({"R": [(1, 2)], "S": [(9, 9)]})
    ra = RandomAccessEnumerator(q, db)
    assert ra.count() == 0
    assert list(ra.in_order()) == []


def test_rejects_non_free_connex_and_comparisons():
    db = make_db(0)
    with pytest.raises(NotFreeConnexError):
        RandomAccessEnumerator(parse_cq("Q(x, y) :- R(x, z), S(z, y)"), db)
    with pytest.raises(UnsupportedQueryError):
        RandomAccessEnumerator(parse_cq("Q(x) :- R(x, y), x != y"), db)


def test_large_instance_random_access_is_fast():
    import time

    db = generators.random_database({"R": 2, "S": 2}, 300, 5000, seed=5)
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    ra = RandomAccessEnumerator(q, db)
    n = ra.count()
    assert n > 0
    start = time.perf_counter()
    for i in range(500):
        ra.answer((i * 2654435761) % n)
    per_access = (time.perf_counter() - start) / 500
    assert per_access < 1e-3  # far below a linear scan


@settings(max_examples=60, deadline=None)
@given(free_connex_instance(), st.integers(0, 2 ** 16))
def test_index_is_the_answer_set_in_one_order(instance, seed):
    """On either engine: the count is the naive one, ``in_order`` is
    ``answer(0..count)``, that is the answer set without repeats, random
    order permutes it and sampling without replacement draws distinct
    answers.  The index always derives on columnar relations, so both
    engines give the same order."""
    cq, db = instance
    truth = evaluate_cq_naive(cq, db)
    orders = []
    for engine in ("tuple", "columnar"):
        with use_engine(engine):
            ra = RandomAccessEnumerator(cq, db)
        assert ra.count() == len(truth), engine
        in_order = list(ra.in_order())
        assert in_order == [ra.answer(j) for j in range(ra.count())]
        assert len(set(in_order)) == len(in_order)
        assert set(in_order) == truth, engine
        assert Counter(ra.random_order(seed)) == Counter(in_order)
        k = min(3, ra.count())
        sample = ra.sample(k, seed=seed, replacement=False)
        assert len(set(sample)) == k and set(sample) <= truth
        orders.append(in_order)
    assert orders[0] == orders[1]


@pytest.mark.parametrize("text, relations, expected", [
    # T is the root, R and S its children: the root's rows in stored
    # order, under each the rightmost child fastest, each group of a
    # child's rows in stored order
    ("Q(a, b, d, e) :- T(a, b), R(a, d), S(b, e)",
     {"T": [(2, 1), (1, 1)], "R": [(1, 10), (2, 12), (1, 11)],
      "S": [(1, 21), (1, 20)]},
     [(2, 1, 12, 21), (2, 1, 12, 20), (1, 1, 10, 21), (1, 1, 10, 20),
      (1, 1, 11, 21), (1, 1, 11, 20)]),
    # the tuple engine materialises an atom repeating a variable in
    # index-bucket order, (1, 9) before (2, 5); the index derives on
    # columnar relations whatever the engine, so stored order holds
    ("Q(x) :- T(x, x, y), S(y, y)",
     {"T": [(1, 1, 9), (2, 2, 5), (1, 1, 5)], "S": [(5, 5)]},
     [(2,), (1,)]),
])
def test_answer_order_is_fixed_on_both_engines(text, relations, expected):
    q = parse_cq(text)
    db = Database.from_relations(relations)
    for engine in ("tuple", "columnar"):
        with use_engine(engine):
            assert list(RandomAccessEnumerator(q, db).in_order()) \
                == expected, engine


def test_python_int_sums_give_the_int64_order(monkeypatch):
    """Past ``COUNT_BOUND`` the kernel sums Python ints; forcing that
    path gives the same count, answers and order as int64 sums."""
    cases = [(parse_cq(text), make_db(seed))
             for text in QUERIES for seed in range(4)]
    expected = []
    for q, db in cases:
        ra = RandomAccessEnumerator(q, db)
        expected.append((ra.count(), list(ra.in_order()),
                         ra.sample(5, seed=1)))
    monkeypatch.setattr(random_access, "COUNT_BOUND", 1)
    for (q, db), want in zip(cases, expected):
        ra = RandomAccessEnumerator(q, db)
        for _order, cum, _bounds, _padded in ra._runs.values():
            assert cum.dtype == object
        assert (ra.count(), list(ra.in_order()),
                ra.sample(5, seed=1)) == want


def test_count_past_two_to_the_63_is_exact():
    """Seven 1,000-row branches on one shared value: 1000 ** 7 answers,
    past int64, counted and indexed exactly."""
    width, branches = 1000, 7
    db = Database.from_relations(
        {f"R{i}": [(1, j) for j in range(width)] for i in range(branches)})
    heads = ", ".join(f"b{i}" for i in range(branches))
    body = ", ".join(f"R{i}(a, b{i})" for i in range(branches))
    ra = RandomAccessEnumerator(parse_cq(f"Q(a, {heads}) :- {body}"), db)
    count = ra.count()
    assert count == width ** branches and count > 2 ** 63
    assert ra.answer(0) == (1,) + (0,) * branches
    assert ra.answer(count - 1) == (1,) + (width - 1,) * branches
    # the join tree is the chain R0 -> R1 -> ... -> R6 (GYO absorbs each
    # Ri into the next), so j's base-1000 digits, least significant
    # first, are b0 ... b6
    indexes = (2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1)
    around = [ra.answer(j) for j in indexes]
    assert len(set(around)) == 3
    assert around == [(1,) + tuple(j // width ** i % width
                                   for i in range(branches))
                      for j in indexes]
    with pytest.raises(IndexError):
        ra.answer(count)
