"""Parity suite for the delta-propagated incremental refresh path.

The contract under test: with ``--incremental`` / ``REPRO_INCREMENTAL=1``
an interleaved stream of inserts, deletes and queries must produce
results *byte-identical* to cold re-preprocessing after every update —
reduced relations (contents AND row order), exact counts, weighted sums
and enumeration order — on both engine backends, including the
delta-log overflow boundary and plans the delta backend does not
support (both of which must degrade gracefully to cold invalidation).

The cold reference is computed with the plan cache disabled entirely,
so nothing warm can leak into it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.plancache import (
    clear_plan_cache,
    incremental_scope,
    plan_cache,
    plan_cache_disabled,
    set_incremental_enabled,
    set_plan_cache_enabled,
)
from repro.core.planner import count, enumerate_answers
from repro.counting.acq_count import count_acq
from repro.counting.weighted import WeightFunction
from repro.data.database import Database
from repro.data import relation as relation_module
from repro.data.relation import Relation
from repro.dynamic.delta import DeltaCounter, DeltaReducer
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.eval.naive import evaluate_cq_naive
from repro.eval.yannakakis import full_reducer
from repro.logic.parser import parse_cq

ENGINES = ["tuple", "columnar"]

PATH_QUERY = "Q(x, y, z) :- R(x, y), S(y, z), T(z)"
ARITIES = {"R": 2, "S": 2, "T": 1}


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_plan_cache()
    set_plan_cache_enabled(None)
    set_incremental_enabled(None)
    yield
    clear_plan_cache()
    set_plan_cache_enabled(None)
    set_incremental_enabled(None)


def _db(seed_rows=()):
    db = Database([Relation(name, arity) for name, arity in ARITIES.items()])
    for name, tup in seed_rows:
        db.relation(name).add(tup)
    return db


def _apply(db, ops):
    for name, op, tup in ops:
        rel = db.relation(name)
        if op == "+":
            rel.add(tup)
        else:
            rel.discard(tup)


def _snapshot(cq, db, engine):
    """Everything the acceptance criteria compare, order-sensitively."""
    _tree, reduced = full_reducer(cq, db, engine=engine)
    rows = [list(r) for r in reduced]
    count = count_acq(cq, db, engine=engine)
    # total on arbitrary values: the columnar value dictionary is
    # process-wide, and weight code tables map every interned value
    weights = WeightFunction(lambda v: v + 2 if isinstance(v, int) else 3)
    weighted = count_acq(cq, db, weights=weights, engine=engine)
    answers = list(FreeConnexEnumerator(cq, db, engine=engine))
    return rows, count, weighted, answers


def _assert_parity(cq, db, engine):
    with incremental_scope(True):
        warm = _snapshot(cq, db, engine)
    with incremental_scope(False), plan_cache_disabled():
        cold = _snapshot(cq, db, engine)
    assert warm[0] == cold[0], "reduced relations diverged (rows or order)"
    assert warm[1] == cold[1], "exact count diverged"
    assert warm[2] == cold[2], "weighted sum diverged"
    assert warm[3] == cold[3], "enumeration diverged (answers or order)"


# ----------------------------------------------------------- strategies


def _ops(min_size, max_size):
    @st.composite
    def build(draw):
        out = []
        for _ in range(draw(st.integers(min_size, max_size))):
            name = draw(st.sampled_from(sorted(ARITIES)))
            op = draw(st.sampled_from("+-"))
            tup = tuple(draw(st.integers(0, 5))
                        for _ in range(ARITIES[name]))
            out.append((name, op, tup))
        return out

    return build()


@st.composite
def update_streams(draw):
    seed = [(name, tup) for name, _op, tup in draw(_ops(3, 15))]
    chunks = draw(st.lists(_ops(1, 10), min_size=1, max_size=3))
    return seed, chunks


# ------------------------------------------------- interleaved streams


@pytest.mark.parametrize("engine", ENGINES)
@given(stream=update_streams())
@settings(max_examples=12, deadline=None)
def test_interleaved_stream_parity(engine, stream):
    """Insert/delete/query streams: the warm refresh path must match a
    cold re-preprocess after every update chunk, on every engine tier.

    The small value domain makes duplicate inserts and deletes of
    absent tuples (no-op mutations) and genuine deletes all frequent.
    """
    seed, chunks = stream
    clear_plan_cache()          # hypothesis reuses the fixture instance
    cq = parse_cq(PATH_QUERY)
    db = _db(seed)
    _assert_parity(cq, db, engine)          # cold build primes the cache
    for ops in chunks:
        _apply(db, ops)
        _assert_parity(cq, db, engine)      # now served via refresh


@pytest.mark.parametrize("engine", ENGINES)
def test_overflow_boundary_parity(engine, monkeypatch):
    """Updates past the delta-log capacity must fall back to a cold
    rebuild — silently and correctly (graceful degradation)."""
    monkeypatch.setattr(relation_module, "DEFAULT_DELTA_LOG_CAPACITY", 4)
    cq = parse_cq(PATH_QUERY)
    db = _db([("R", (i, i % 3)) for i in range(8)]
             + [("S", (i % 3, i)) for i in range(8)]
             + [("T", (i,)) for i in range(8)])
    with incremental_scope(True):
        _snapshot(cq, db, engine)           # prime warm plans
    # 12 effective mutations on R: far past the 4-entry ring
    for i in range(100, 112):
        db.relation("R").add((i % 3, i % 5))
        db.relation("R").discard((i % 3, i % 5))
    _assert_parity(cq, db, engine)
    stats = plan_cache().stats()
    assert stats["refresh_overflows"] >= 1
    # a later *small* delta refreshes again: overflow is not sticky
    db.relation("T").add((77,))
    _assert_parity(cq, db, engine)


def test_unsupported_plan_degrades_to_cold():
    """Repeated-variable atoms are outside the tuple-engine delta
    backend's contract: the incremental flag must not change answers."""
    cq = parse_cq("Q(x, y) :- E(x, x), F(x, y)")
    db = Database([Relation("E", 2), Relation("F", 2)])
    for i in range(6):
        db.relation("E").add((i, i if i % 2 else i + 1))
        db.relation("F").add((i, i + 10))
    _assert_parity(cq, db, "tuple")
    db.relation("E").add((7, 7))
    db.relation("F").discard((0, 10))
    _assert_parity(cq, db, "tuple")


# -------------------------------------------- refresher-error fallback


def _count(cq, db, engine):
    return count(cq, db, engine=engine)


def _answers(cq, db, engine):
    return sorted(enumerate_answers(cq, db, engine=engine))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("run, naive, plan_cls", [
    (_count, lambda cq, db: len(evaluate_cq_naive(cq, db)), DeltaCounter),
    (_answers, lambda cq, db: sorted(evaluate_cq_naive(cq, db)),
     DeltaReducer),
], ids=["count", "enumerate"])
def test_refresher_error_falls_back_to_cold(engine, run, naive, plan_cls,
                                            monkeypatch):
    """A refresher that raises mid-update marks its plan broken, and the
    lookup rebuilds cold: the answer is still the naive one, and the
    fallback is counted once on the tracer and in the cache stats."""
    cq = parse_cq(PATH_QUERY)
    db = _db([("R", (i, i % 7)) for i in range(20)]
             + [("S", (i % 7, i % 5)) for i in range(20)]
             + [("T", (i % 5,)) for i in range(20)])
    with incremental_scope(True):
        run(cq, db, engine)                 # cold build primes the cache
        db.relation("S").add((3, 4))
        db.relation("T").discard((0,))
        apply = plan_cls._apply
        calls = []

        def apply_failing_once(self, deltas):
            calls.append(deltas)
            if len(calls) == 1:
                raise RuntimeError("injected refresh failure")
            return apply(self, deltas)

        monkeypatch.setattr(plan_cls, "_apply", apply_failing_once)
        with obs.capture() as tr:
            result = run(cq, db, engine)
    assert len(calls) == 2                  # the failed refresh, the cold seed
    assert result == naive(cq, db)
    assert tr.counters.get("delta.refresh_broken") == 1
    assert tr.counters.get("plancache.refresh_fallback") == 1
    assert plan_cache().stats()["refresh_fallbacks"] == 1


# ------------------------------------------------- satellite: no-op ops


def test_noop_mutations_bump_nothing():
    """Re-adding a present tuple / discarding an absent one must not
    bump the version nor emit a delta — otherwise every no-op would
    poison warm plans."""
    rel = Relation("R", 2)
    rel.add((1, 2))
    v = rel.version
    rel.add((1, 2))             # duplicate insert: no-op
    rel.discard((9, 9))         # absent delete: no-op
    assert rel.version == v
    assert rel.deltas_since(v) == []
    rel.discard((1, 2))         # effective
    assert rel.version == v + 1
    assert rel.deltas_since(v) == [("-", (1, 2))]


def test_noop_mutations_do_not_invalidate_warm_plans():
    cq = parse_cq(PATH_QUERY)
    db = _db([("R", (1, 2)), ("S", (2, 3)), ("T", (3,))])
    with incremental_scope(True):
        before = _snapshot(cq, db, "columnar")
        base = plan_cache().stats()
        db.relation("R").add((1, 2))        # no-op
        db.relation("T").discard((99,))     # no-op
        after = _snapshot(cq, db, "columnar")
        stats = plan_cache().stats()
    assert after == before
    assert stats["refreshes"] == base["refreshes"]      # pure cache hits
    assert stats["misses"] == base["misses"]


# ------------------------------------------- satellite: stats counters


def test_refresh_counters_in_stats():
    cq = parse_cq(PATH_QUERY)
    db = _db([("R", (1, 2)), ("S", (2, 3)), ("T", (3,))])
    with incremental_scope(True):
        _snapshot(cq, db, "columnar")       # cold misses
        assert plan_cache().stats()["refreshes"] == 0
        db.relation("S").add((2, 4))
        _snapshot(cq, db, "columnar")
        stats = plan_cache().stats()
    # at least the full-reducer and counting states were refreshed
    assert stats["refreshes"] >= 2
    assert stats["refresh_fallbacks"] == 0
    assert stats["refresh_overflows"] == 0


def test_incremental_off_never_refreshes():
    cq = parse_cq(PATH_QUERY)
    db = _db([("R", (1, 2)), ("S", (2, 3)), ("T", (3,))])
    with incremental_scope(False):
        _snapshot(cq, db, "columnar")
        db.relation("S").add((2, 4))
        _snapshot(cq, db, "columnar")
    assert plan_cache().stats()["refreshes"] == 0
