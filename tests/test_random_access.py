"""Tests for random-access / random-order enumeration (the [23]
extension the paper's Section 4.3 points at)."""

import pytest

from repro.data import generators
from repro.data.database import Database
from repro.enumeration.random_access import RandomAccessEnumerator
from repro.errors import NotFreeConnexError, UnsupportedQueryError
from repro.eval.naive import evaluate_cq_naive
from repro.logic.parser import parse_cq

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
