"""The maintained Theorem 4.21 count (``DeltaCounter``) on its own:
the int64 guard, the state's memory (messages sized by its own keys,
churned keys reclaimed) and the refresh paths the plan cache reaches
only at scale (compaction of dead rows)."""

import numpy as np
import pytest

from repro import obs
from repro.core.plancache import clear_plan_cache, incremental_scope, plan_cache
from repro.core.planner import count
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dynamic import delta
from repro.dynamic.delta import TAIL_MIN, DeltaCounter
from repro.engine.columnar import default_dictionary
from repro.eval.naive import evaluate_cq_naive
from repro.logic.parser import parse_cq

PATH = "Q(x, y, z) :- R(x, y), S(y, z)"


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _path_db():
    return Database([Relation("R", 2, [(i, i % 5) for i in range(30)]),
                     Relation("S", 2, [(i % 5, i) for i in range(30)])])


def test_count_beyond_the_bound_falls_back_cold(monkeypatch):
    """A refresh whose int64 sums could overflow returns None: the
    lookup counts one fallback and rebuilds cold, and the tuple engine
    answers with its exact Python int."""
    cq = parse_cq(PATH)
    db = _path_db()
    with incremental_scope(True):
        count(cq, db, engine="tuple")           # seeds the state
        fallbacks = plan_cache().stats()["refresh_fallbacks"]
        monkeypatch.setattr(delta, "COUNT_BOUND", 100)
        db.relation("R").add((99, 1))
        with obs.capture() as tr:
            result = count(cq, db, engine="tuple")
    assert plan_cache().stats()["refresh_fallbacks"] == fallbacks + 1
    assert tr.counters.get("delta.count_bound_exceeded") == 1
    assert tr.counters.get("plancache.refresh_fallback") == 1
    assert [s.attrs["backend"] for s in tr.spans
            if s.name == "count.message_passing"] == ["tuple"]
    assert type(result) is int
    assert result == len(evaluate_cq_naive(cq, db))


def test_count_past_int64_is_exact_on_the_tuple_engine():
    """2**64 answers: the state is never built, and the count with
    refresh on is the tuple engine's exact int, as with it off."""
    names = "ABCDEFGH"
    cq = parse_cq("Q({0}) :- {1}".format(
        ", ".join(n.lower() for n in names),
        ", ".join(f"{n}({n.lower()})" for n in names)))
    db = Database([Relation(n, 1, [(v,) for v in range(256)])
                   for n in names])
    with incremental_scope(True):
        assert DeltaCounter.build(cq, db) is None
        assert count(cq, db, engine="tuple") == 2 ** 64
        db.relation("A").discard((0,))
        assert count(cq, db, engine="tuple") == 255 * 2 ** 56


def _cold_count(cq, db):
    with incremental_scope(False):
        return count(cq, db.copy(), engine="columnar")


def _refresh(state, db, versions):
    """Catch ``state`` up with every relation's ops since ``versions``."""
    deltas = {rel.name: rel.deltas_since(versions[rel.name]) for rel in db}
    versions.update({rel.name: rel.version for rel in db})
    assert state.refreshed(deltas) is state


def test_dead_rows_are_compacted_away():
    """Deleting most rows one small batch at a time leaves the state
    holding only its live rows, with the count intact."""
    cq = parse_cq(PATH)
    db = Database([Relation("R", 2, [(i, i % 7) for i in range(400)]),
                   Relation("S", 2, [(i % 7, i) for i in range(400)])])
    state = DeltaCounter.build(cq, db)
    versions = {rel.name: rel.version for rel in db}
    for i in range(300):
        db.relation("R").discard((i, i % 7))
        db.relation("S").add((i % 7, 1000 + i))
        if i % 10 == 9:
            _refresh(state, db, versions)
            assert state.total() == _cold_count(cq, db)
    node = state.nodes[0]                       # R(x, y)
    assert node.live == 100
    assert node.n <= 2 * node.live


def test_batches_after_the_seed_propagate(monkeypatch):
    """The seed takes every message from the cold kernel; every later
    batch, small or moving most of the rows, propagates and gives the
    naive count."""
    cq = parse_cq(PATH)
    db = _path_db()
    paths = []
    for name in ("_recompute", "_propagate"):
        method = getattr(DeltaCounter, name)
        monkeypatch.setattr(
            DeltaCounter, name,
            lambda *args, _m=method, _n=name: paths.append(_n) or _m(*args))
    state = DeltaCounter.build(cq, db)
    versions = {rel.name: rel.version for rel in db}
    db.relation("S").add((2, 77))
    _refresh(state, db, versions)
    for i in range(40):
        db.relation("R").add((100 + i, i % 5))
        db.relation("S").discard((i % 5, i))
    _refresh(state, db, versions)
    assert paths == ["_recompute", "_propagate", "_propagate"]
    assert state.total() == len(evaluate_cq_naive(cq, db))


def test_build_past_the_bound_encodes_nothing(monkeypatch):
    """The int64 bound is checked on row counts before any relation is
    encoded: a state that cannot be built costs no encode."""
    cq = parse_cq(PATH)
    db = _path_db()
    db.relation("R").add((99, 1))               # the column cache is stale
    monkeypatch.setattr(delta, "COUNT_BOUND", 100)
    with obs.capture() as tr:
        assert DeltaCounter.build(cq, db) is None
    assert not any(name.startswith("kernel.encode")
                   for name in tr.counters)


def test_messages_follow_the_state_not_the_dictionary():
    """A small state's messages hold its own keys, however many values
    the process-wide dictionary has encoded for other databases."""
    dictionary = default_dictionary()
    base = 10 ** 12 + len(dictionary)
    dictionary.encode_column(np.arange(base, base + 50_000, dtype=np.int64))
    cq = parse_cq(PATH)
    state = DeltaCounter.build(cq, _path_db())
    assert len(dictionary) > 50_000
    assert state.total() == len(evaluate_cq_naive(cq, _path_db()))
    assert all(len(node.msg) <= 2 * 5 for node in state.nodes)


def test_churned_keys_are_reclaimed():
    """Replacing the rows by ones on fresh keys, batch after batch,
    keeps the slot maps and messages within a constant factor of the
    live rows, with the count intact."""
    cq = parse_cq(PATH)
    db = _path_db()
    state = DeltaCounter.build(cq, db)
    versions = {rel.name: rel.version for rel in db}
    for step in range(60):
        for rel in db:
            for t in list(rel)[:5]:
                rel.discard(t)
            for i in range(5):
                key = 1000 * (step + 1) + i        # a fresh join key
                rel.add((i, key) if rel.name == "R" else (key, i))
        _refresh(state, db, versions)
        assert state.total() == _cold_count(cq, db)
    live = sum(node.live for node in state.nodes)
    slots = sum(len(node.slotmaps[0]) for node in state.nodes
                if node.slotmaps[0] is not None)
    assert slots <= 2 * live + TAIL_MIN
    assert all(len(node.msg) <= 2 * (slots + 1) for node in state.nodes)
