"""Tests for the dynamic free-connex view (query evaluation under
updates — the extension direction flagged by the paper's conclusion)."""

import random

import pytest

from repro.data import generators
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dynamic import DynamicFreeConnexView
from repro.errors import (NotFreeConnexError, SchemaMismatchError,
                          UnsupportedQueryError)
from repro.eval.naive import evaluate_cq_naive
from repro.logic.parser import parse_cq

QUERIES = [
    "Q(x) :- R(x, z), S(z, y)",
    "Q(x, y) :- R(x, w), S(y, u), B(u)",
    "Q() :- R(x, z), S(z, y)",
    "Q(x, y, z) :- R(x, y), S(y, z)",
    "Q(x1, x2, x3) :- R(x1, x2), S3(x2, x3, y3), R(x1, y1), T3(y3, y4, y5), S2(x2, y2)",
]


def replay_and_check(text, steps=200, seed=0, check_every=29):
    q = parse_cq(text)
    arities = q.relation_arities()
    rng = random.Random(seed)
    view = DynamicFreeConnexView(q)
    rels = {name: Relation(name, ar) for name, ar in arities.items()}
    present = {name: set() for name in arities}
    for step in range(steps):
        name = rng.choice(list(arities))
        ar = arities[name]
        if present[name] and rng.random() < 0.4:
            tup = rng.choice(sorted(present[name]))
            present[name].discard(tup)
            rels[name].discard(tup)
            view.delete(name, tup)
        else:
            tup = tuple(rng.randrange(5) for _ in range(ar))
            present[name].add(tup)
            rels[name].add(tup)
            view.insert(name, tup)
        if step % check_every == 0 or step == steps - 1:
            db = Database([r.copy() for r in rels.values()], domain=range(5))
            truth = evaluate_cq_naive(q, db)
            assert view.answers() == truth, (text, step)
            assert view.count_answers() == len(truth), (text, step)
            assert view.is_satisfiable() == bool(truth), (text, step)


@pytest.mark.parametrize("text", QUERIES)
def test_random_update_replay(text):
    replay_and_check(text)


def test_initial_load_from_database():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    db = generators.random_database({"R": 2, "S": 2}, 6, 20, seed=1)
    view = DynamicFreeConnexView(q, db)
    assert view.answers() == evaluate_cq_naive(q, db)


def test_insert_is_idempotent_and_delete_of_missing_is_noop():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    view = DynamicFreeConnexView(q)
    view.insert("R", (1, 2))
    view.insert("R", (1, 2))
    view.insert("S", (2, 9))
    assert view.answers() == {(1,)}
    view.delete("R", (7, 7))  # no-op
    assert view.answers() == {(1,)}
    view.delete("R", (1, 2))
    assert view.answers() == set()
    # deleting again is still a no-op
    view.delete("R", (1, 2))
    assert view.answers() == set()


def test_alive_propagation_chain():
    # chain R(x,z), S(z,w), T(w,y): T's tuples control aliveness two up
    q = parse_cq("Q(x) :- R(x, z), S(z, w), T(w, y)")
    view = DynamicFreeConnexView(q)
    view.insert("R", (1, 2))
    view.insert("S", (2, 3))
    assert not view.is_satisfiable()
    view.insert("T", (3, 4))
    assert view.answers() == {(1,)}
    view.delete("T", (3, 4))
    assert view.answers() == set()
    stats = view.stats()
    assert stats["stored_tuples"] == 2
    assert stats["alive_tuples"] < stats["stored_tuples"] + 1


def test_self_join_updates():
    q = parse_cq("Q(x) :- R(x, y), R(y, z)")
    view = DynamicFreeConnexView(q)
    view.insert("R", (1, 2))
    assert view.answers() == set()
    view.insert("R", (2, 3))
    assert view.answers() == {(1,)}
    view.delete("R", (2, 3))
    assert view.answers() == set()


def test_boolean_view():
    q = parse_cq("Q() :- R(x, z), S(z, y)")
    view = DynamicFreeConnexView(q)
    assert not view.is_satisfiable()
    view.insert("R", (1, 2))
    view.insert("S", (2, 3))
    assert view.is_satisfiable()
    assert view.count_answers() == 1
    view.delete("S", (2, 3))
    assert not view.is_satisfiable()
    assert view.count_answers() == 0


def test_constants_in_atoms():
    q = parse_cq("Q(y) :- R(1, y)")
    view = DynamicFreeConnexView(q)
    view.insert("R", (1, 5))
    view.insert("R", (2, 6))  # does not match the constant
    assert view.answers() == {(5,)}


def test_rejects_unsupported_queries():
    with pytest.raises(NotFreeConnexError):
        DynamicFreeConnexView(parse_cq("Q(x, y) :- R(x, z), S(z, y)"))
    with pytest.raises(UnsupportedQueryError):
        DynamicFreeConnexView(parse_cq("Q(x) :- R(x, y), x != y"))


def test_update_cost_is_localised():
    """Inserting into a relation far from the answer should not rebuild:
    measured as stats invariance of the untouched subtree."""
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    view = DynamicFreeConnexView(q)
    for i in range(50):
        view.insert("R", (i, i % 5))
    before = view.stats()["alive_tuples"]
    assert before == 0  # nothing alive yet: S is empty
    view.insert("S", (0, 99))
    after = view.stats()["alive_tuples"]
    # exactly the S tuple + the R tuples with z = 0 became alive
    assert after == 1 + sum(1 for i in range(50) if i % 5 == 0)


# -------------------------------------------------------- materialized mode


def test_materialized_counts_and_enumeration():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    view = DynamicFreeConnexView(q, materialize=True)
    view.insert("R", (1, 2))
    view.insert("R", (3, 2))
    view.insert("S", (2, 9))
    assert view.count_answers() == 2
    assert view.answers() == {(1,), (3,)}


def test_materialized_delta_stream_matches_truth():
    q = parse_cq("Q(x, y) :- R(x, w), S(y, u), B(u)")
    view = DynamicFreeConnexView(q, materialize=True)
    rng = random.Random(5)
    arities = q.relation_arities()
    rels = {n: Relation(n, a) for n, a in arities.items()}
    present = {n: set() for n in arities}
    prev = set()
    for step in range(150):
        name = rng.choice(list(arities))
        ar = arities[name]
        if present[name] and rng.random() < 0.4:
            t = rng.choice(sorted(present[name]))
            present[name].discard(t)
            rels[name].discard(t)
            view.delete(name, t)
        else:
            t = tuple(rng.randrange(4) for _ in range(ar))
            present[name].add(t)
            rels[name].add(t)
            view.insert(name, t)
        if step % 11 == 0 or step == 149:
            db = Database([r.copy() for r in rels.values()], domain=range(4))
            truth = evaluate_cq_naive(q, db)
            added, removed = view.pop_changes()
            assert set(added) == truth - prev, step
            assert set(removed) == prev - truth, step
            assert view.answers() == truth, step
            prev = truth


def test_add_remove_within_window_cancels():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    view = DynamicFreeConnexView(q, materialize=True)
    view.insert("R", (1, 2))
    view.insert("S", (2, 9))
    view.delete("S", (2, 9))
    added, removed = view.pop_changes()
    assert added == [] and removed == []


def test_boolean_materialized_deltas():
    q = parse_cq("Q() :- R(x, z), S(z, y)")
    view = DynamicFreeConnexView(q, materialize=True)
    view.insert("R", (1, 2))
    view.insert("S", (2, 3))
    assert view.pop_changes() == ([()], [])
    assert view.count_answers() == 1
    view.delete("S", (2, 3))
    assert view.pop_changes() == ([], [()])


def test_pop_changes_requires_materialize():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    view = DynamicFreeConnexView(q)
    with pytest.raises(UnsupportedQueryError):
        view.pop_changes()


@pytest.mark.parametrize("seed", range(8))
def test_materialized_self_join_matches_truth_after_every_op(seed):
    """One R op can change both projections of a self-join at once; the
    answer stream must still match recomputation after every op."""
    q = parse_cq("Q(x, y) :- R(x, w), R(y, u)")
    view = DynamicFreeConnexView(q, materialize=True)
    rng = random.Random(seed)
    rel = Relation("R", 2)
    prev = set()
    for step in range(120):
        if len(rel) and rng.random() < 0.45:
            t = rng.choice(sorted(rel))
            rel.discard(t)
            view.delete("R", t)
        else:
            t = (rng.randrange(4), rng.randrange(4))
            rel.add(t)
            view.insert("R", t)
        truth = evaluate_cq_naive(q, Database([rel.copy()], domain=range(4)))
        added, removed = view.pop_changes()
        assert set(added) == truth - prev, (seed, step)
        assert set(removed) == prev - truth, (seed, step)
        assert view.answers() == truth, (seed, step)
        assert view.count_answers() == len(truth), (seed, step)
        prev = truth


def test_materialized_initial_load_reports_every_answer_as_added():
    q = parse_cq("Q(x, y) :- R(x, w), S(y, u), B(u)")
    db = generators.random_database({"R": 2, "S": 2, "B": 1}, 5, 12, seed=2)
    truth = evaluate_cq_naive(q, db)
    assert truth
    view = DynamicFreeConnexView(q, db, materialize=True)
    added, removed = view.pop_changes()
    assert sorted(added) == sorted(truth)
    assert removed == []
    assert view.count_answers() == len(truth)


def test_wrong_arity_tuples_are_rejected():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    view = DynamicFreeConnexView(q)
    for bad in [(1, 2, 3), (1,)]:
        with pytest.raises(SchemaMismatchError):
            view.insert("R", bad)
        with pytest.raises(SchemaMismatchError):
            view.delete("S", bad)
    assert view.stats()["stored_tuples"] == 0
    # a relation the query does not mention stays a no-op
    view.insert("T", (1, 2, 3))
    view.delete("T", (1,))
    assert view.stats()["stored_tuples"] == 0
