"""The maintained Theorem 4.21 count (``DeltaCounter``) on its own:
the lazy seed and the cost rule of the count's plan-cache slot, the
int64 guard, the state's memory (messages sized by its own keys,
churned keys reclaimed) and the refresh paths the plan cache reaches
only at scale (compaction of dead rows)."""

import numpy as np
import pytest

from repro import obs
from repro.core.plancache import clear_plan_cache, plan_cache
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


ENGINES = pytest.mark.parametrize("engine", ["tuple", "columnar"])


def _builds(run):
    """How many states ``run()`` seeds (``delta.counter_build`` spans)."""
    with obs.capture() as tr:
        run()
    return sum(s.name == "delta.counter_build" for s in tr.spans)


@ENGINES
def test_counts_of_an_unwritten_database_build_no_state(engine):
    """A count on a fresh database, and repeats on one never written,
    read the cached total and seed nothing."""
    cq = parse_cq(PATH)
    db = _path_db()
    expected = len(evaluate_cq_naive(cq, db))
    for _ in range(3):
        assert _builds(lambda: count(cq, db, engine=engine)) == 0
        assert _builds(lambda: count(cq, _path_db(), engine=engine)) == 0
    assert count(cq, db, engine=engine) == expected
    assert plan_cache().stats()["refreshes"] == 0


@ENGINES
def test_the_first_count_after_a_write_seeds_the_state(engine):
    """A write and a count seed the state in the count's slot; each
    later write and count refreshes it; the cache keeps one entry."""
    cq = parse_cq(PATH)
    db = _path_db()
    count(cq, db, engine=engine)
    assert len(plan_cache()) == 1
    for step in range(3):
        db.relation("R").add((100 + step, step))
        refreshes = plan_cache().refreshes
        seeded = _builds(lambda: count(cq, db, engine=engine))
        assert seeded == (1 if step == 0 else 0)
        assert plan_cache().refreshes == refreshes + 1
        assert len(plan_cache()) == 1
        assert count(cq, db, engine=engine) == len(evaluate_cq_naive(cq, db))


def test_both_engines_read_one_slot_and_one_state():
    """The cold total and, after a write, the one state that both
    engines read share the count's slot: a write is caught up once,
    whichever engine counts next."""
    cq = parse_cq(PATH)
    db = _path_db()
    expected = len(evaluate_cq_naive(cq, db))
    assert count(cq, db, engine="tuple") == expected
    assert count(cq, db, engine="columnar") == expected
    assert len(plan_cache()) == 1
    for step, (first, second) in enumerate([("tuple", "columnar"),
                                            ("columnar", "tuple")]):
        db.relation("R").add((100 + step, step))
        refreshes = plan_cache().refreshes
        assert _builds(lambda: count(cq, db, engine=first)) == (step == 0)
        assert _builds(lambda: count(cq, db, engine=second)) == 0
        assert plan_cache().refreshes == refreshes + 1
        assert len(plan_cache()) == 1
        assert count(cq, db, engine=second) == len(evaluate_cq_naive(cq, db))


@ENGINES
@pytest.mark.parametrize("ops, refreshed", [(11, True), (12, False)])
def test_the_cost_rule_takes_a_batch_up_to_its_limit(engine, ops,
                                                     refreshed):
    """A tenth of the counted rows plus 4 logged ops refresh the state;
    one op more is declined and the slot rebuilds cold."""
    cq = parse_cq(PATH)
    db = _path_db()
    count(cq, db, engine=engine)
    db.relation("R").add((99, 1))
    count(cq, db, engine=engine)                # seeds the state
    for i in range(ops):
        db.relation("S").add((i % 5, 1000 + i))
    rows = len(db.relation("R")) + len(db.relation("S"))
    assert rows // 10 + 4 == 11
    refreshes = plan_cache().refreshes
    fallbacks = plan_cache().refresh_fallbacks
    assert count(cq, db, engine=engine) == len(evaluate_cq_naive(cq, db))
    assert plan_cache().refreshes == refreshes + refreshed
    assert plan_cache().refresh_fallbacks == fallbacks + (not refreshed)


@ENGINES
def test_a_batch_past_the_cost_rule_rebuilds_cold(engine):
    """More logged ops than a tenth of the counted rows plus 4 lose to
    a cold count: the refresh is declined, counted as one fallback,
    and the count is rebuilt cold; a small batch after it seeds a
    state again."""
    cq = parse_cq(PATH)
    db = _path_db()
    count(cq, db, engine=engine)
    db.relation("R").add((99, 1))
    count(cq, db, engine=engine)                # seeds the state
    for i in range(100):
        db.relation("S").add((i % 5, 1000 + i))
    assert 100 > (len(db.relation("R")) + len(db.relation("S"))) // 10 + 4
    fallbacks = plan_cache().refresh_fallbacks
    with obs.capture() as tr:
        result = count(cq, db, engine=engine)
    assert plan_cache().refresh_fallbacks == fallbacks + 1
    assert tr.counters.get("delta.cold_cheaper") == 1
    assert [s.attrs["backend"] for s in tr.spans
            if s.name == "count.message_passing"] == [
                "tuple" if engine == "tuple" else "columnar"]
    assert result == len(evaluate_cq_naive(cq, db))
    assert len(plan_cache()) == 1
    db.relation("R").discard((99, 1))
    assert _builds(lambda: count(cq, db, engine=engine)) == 1
    assert count(cq, db, engine=engine) == len(evaluate_cq_naive(cq, db))


@ENGINES
def test_a_seed_that_raises_falls_back_cold(engine, monkeypatch):
    """A seed that fails unexpectedly leaves the count to a cold
    rebuild, counted as one fallback."""
    cq = parse_cq(PATH)
    db = _path_db()
    count(cq, db, engine=engine)

    def failing(self, batch):
        raise RuntimeError("injected seed failure")

    monkeypatch.setattr(DeltaCounter, "_apply", failing)
    db.relation("R").add((99, 1))
    with obs.capture() as tr:
        assert count(cq, db, engine=engine) == len(evaluate_cq_naive(cq, db))
    assert tr.counters.get("delta.refresh_broken") == 1
    assert plan_cache().stats()["refresh_fallbacks"] == 1


def test_count_beyond_the_bound_falls_back_cold(monkeypatch):
    """A refresh whose int64 sums could overflow returns None: the
    lookup counts one fallback and rebuilds cold, and the tuple engine
    answers with its exact Python int."""
    cq = parse_cq(PATH)
    db = _path_db()
    count(cq, db, engine="tuple")
    db.relation("S").add((4, 99))
    count(cq, db, engine="tuple")               # seeds the state
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
    """2**64 answers: the state is never built, and the count, before
    and after a write, is the tuple engine's exact int."""
    names = "ABCDEFGH"
    cq = parse_cq("Q({0}) :- {1}".format(
        ", ".join(n.lower() for n in names),
        ", ".join(f"{n}({n.lower()})" for n in names)))
    db = Database([Relation(n, 1, [(v,) for v in range(256)])
                   for n in names])
    assert DeltaCounter.build(cq, db) is None
    assert count(cq, db, engine="tuple") == 2 ** 64
    db.relation("A").discard((0,))
    assert count(cq, db, engine="tuple") == 255 * 2 ** 56


def _cold_count(cq, db):
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
    db.relation("R").add((99, 1))               # the memo is dropped
    monkeypatch.setattr(delta, "COUNT_BOUND", 100)
    with obs.capture() as tr:
        assert DeltaCounter.build(cq, db) is None
    assert "engine.symbol_workspace_misses" not in tr.counters


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
