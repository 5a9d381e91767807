"""Parity suite for the parallel backend (shared-memory worker pool).

The parallel engine's contract is *byte-level* equivalence with the
serial columnar engine: block enumeration — the one layer it hands to
the pool — must emit the identical flat answer sequence at every worker
count, and everything else (reduction, plain and weighted counts) runs
the serial columnar kernels, so it must agree exactly.  These tests
force pool dispatch with a zero threshold so even tiny hypothesis
instances cross the shared-memory path, and pin the below-threshold
fallback directly.

Worker pools are cached process-wide by worker count, so the spawn cost
is paid once per module, not per example.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.plancache import plan_cache_disabled
from repro.counting.acq_count import count_acq
from repro.counting.weighted import WeightFunction
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine.base import ColumnarEngine
from repro.engine.columnar import ColumnarRelation, ValueDictionary
from repro.engine.enumerate import BlockIterator
from repro.engine.parallel import (
    ParallelBlockIterator,
    ParallelEngine,
    arena_cache_stats,
    get_pool,
    invalidate_arena_cache,
    pool_stats,
    shutdown_pools,
)
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.enumeration.full_acyclic import (
    FullJoinEnumerator,
    reduce_relations,
)
from repro.eval.naive import evaluate_cq_naive
from repro.eval.yannakakis import full_reducer
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import build_join_tree
from repro.logic.atoms import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.parser import parse_cq
from repro.logic.terms import Variable

WORKER_COUNTS = (1, 2, 4)

DOMAIN = st.integers(min_value=0, max_value=4)


def _engine(workers: int) -> ParallelEngine:
    # threshold=0 forces pool dispatch on arbitrarily small inputs
    # (workers=1 still exercises the serial fallback inside the engine)
    return ParallelEngine(workers=workers, threshold=0)


def _rows(draw, arity, max_rows=10):
    return draw(st.lists(
        st.tuples(*([DOMAIN] * arity)), min_size=0, max_size=max_rows))


@st.composite
def acyclic_instance(draw):
    """A random acyclic CQ with a random database (tree-structured atom
    variable sets guarantee alpha-acyclicity by construction)."""
    n_atoms = draw(st.integers(min_value=1, max_value=4))
    atom_vars = []
    fresh = 0
    for i in range(n_atoms):
        if i == 0:
            shared = []
        else:
            parent = atom_vars[draw(st.integers(0, i - 1))]
            shared = draw(st.lists(st.sampled_from(parent), min_size=1,
                                   max_size=len(parent), unique=True))
        n_fresh = draw(st.integers(min_value=0 if shared else 1, max_value=2))
        mine = list(shared)
        for _ in range(n_fresh):
            mine.append(Variable(f"v{fresh}"))
            fresh += 1
        atom_vars.append(draw(st.permutations(mine)))

    atoms = [Atom(f"R{i}", vs) for i, vs in enumerate(atom_vars)]
    all_vars = sorted({v for vs in atom_vars for v in vs},
                      key=lambda v: v.name)
    head = draw(st.lists(st.sampled_from(all_vars), unique=True,
                         max_size=len(all_vars)))
    cq = ConjunctiveQuery(head, atoms)

    db = Database()
    for i, vs in enumerate(atom_vars):
        db.add_relation(Relation(f"R{i}", len(vs), _rows(draw, len(vs))))
    return cq, db


def _path_relations(sizes, seed=3, dom=30):
    """A three-atom path join R(x,y), S(y,z), T(z,w) on one dictionary."""
    rng = random.Random(seed)
    x, y, z, w = (Variable(n) for n in "xyzw")
    d = ValueDictionary()
    schemas = [(x, y), (y, z), (z, w)]
    rels = [
        ColumnarRelation(vs, [(rng.randrange(dom), rng.randrange(dom))
                              for _ in range(n)], dictionary=d)
        for vs, n in zip(schemas, sizes)
    ]
    return rels, (x, y, z, w)


# ------------------------------------------------------ count / enumerate


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_count_and_weighted_parity(workers):
    """Counting runs the serial columnar kernel on the parallel backend,
    so plain counts and float64 weighted sums are *exactly* columnar's.
    Fresh dictionaries: the weight table covers every value a dictionary
    holds, and the process-global one carries foreign values."""
    rng = random.Random(9)
    db = Database.from_relations({
        name: [(rng.randrange(30), rng.randrange(30)) for _ in range(n)]
        for name, n in (("R", 500), ("S", 500), ("T", 150))})
    cq = parse_cq("Q(x, y, z, w) :- R(x, y), S(y, z), T(z, w)")
    wf = WeightFunction(lambda v: 1.3 if v % 2 == 0 else 0.7)
    par = ParallelEngine(ValueDictionary(), workers=workers, threshold=0)
    col = ColumnarEngine(ValueDictionary())
    with plan_cache_disabled():
        assert count_acq(cq, db, engine=par) == count_acq(cq, db, engine=col)
        assert count_acq(cq, db, wf, engine=par) \
            == count_acq(cq, db, wf, engine=col)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_enumeration_order_identical(workers):
    rels, head = _path_relations([300, 300, 90], seed=5)
    serial = list(BlockIterator(rels, head, block_size=32))
    par = list(ParallelBlockIterator(rels, head, block_size=32,
                                     engine=_engine(workers)))
    assert serial == par


def test_parallel_enumeration_restartable():
    rels, head = _path_relations([200, 200, 60], seed=6)
    serial = list(BlockIterator(rels, head, block_size=32))
    it = ParallelBlockIterator(rels, head, block_size=32, engine=_engine(2))
    assert list(it) == serial
    assert list(it) == serial


def test_below_threshold_falls_back_to_serial():
    rels, head = _path_relations([50, 50, 20])
    eng = ParallelEngine(workers=2, threshold=10 ** 9)
    assert not eng.should_parallelise(rels)
    # the public path still answers in order through the serial iterator
    with obs.capture() as tracer:
        answers = list(FullJoinEnumerator(rels, head, engine=eng))
    assert answers == list(BlockIterator(rels, head))
    assert "parallel.tasks" not in tracer.counters


def test_workers_one_never_dispatches():
    rels, _head = _path_relations([200, 200, 60])
    eng = ParallelEngine(workers=1, threshold=0)
    assert not eng.should_parallelise(rels)


# --------------------------------------------------- end-to-end (planner)


@settings(max_examples=20, deadline=None)
@given(acyclic_instance())
def test_query_parity_random_instances(instance):
    """Random acyclic CQs: answers, counts, and enumeration all agree
    between the serial columnar engine and a 2-worker pool forced on."""
    cq, db = instance
    eng = _engine(2)
    with plan_cache_disabled():
        expect = count_acq(cq, db, engine="columnar")
        assert count_acq(cq, db, engine=eng) == expect
        if not cq.is_boolean() and cq.is_free_connex():
            serial = list(FreeConnexEnumerator(cq, db, engine="columnar"))
            par = list(FreeConnexEnumerator(cq, db, engine=eng))
            assert par == serial
            assert set(par) == evaluate_cq_naive(cq, db)


@pytest.mark.parametrize("workers", (2, 4))
def test_free_connex_order_parity_medium(workers):
    rng = random.Random(13)
    db = Database.from_relations({
        "R": [(rng.randrange(40), rng.randrange(40)) for _ in range(1500)],
        "S": [(rng.randrange(40), rng.randrange(40)) for _ in range(1500)],
    })
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    cq = ConjunctiveQuery([x, y, z], [Atom("R", (x, y)), Atom("S", (y, z))])
    with plan_cache_disabled():
        serial = list(FreeConnexEnumerator(cq, db, engine="columnar"))
        par = list(FreeConnexEnumerator(cq, db, engine=_engine(workers)))
    assert serial == par


def test_plan_key_distinguishes_fanouts():
    e2 = ParallelEngine(workers=2, threshold=0)
    e4 = ParallelEngine(workers=4, threshold=0)
    assert e2.plan_key() != e4.plan_key()
    assert ParallelEngine(workers=2, threshold=0).plan_key() == e2.plan_key()


def test_full_reducer_entry_point_parity():
    rng = random.Random(17)
    db = Database.from_relations({
        "R": [(rng.randrange(30), rng.randrange(30)) for _ in range(1200)],
        "S": [(rng.randrange(30), rng.randrange(30)) for _ in range(1200)],
    })
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    cq = ConjunctiveQuery([x, y, z], [Atom("R", (x, y)), Atom("S", (y, z))])
    with plan_cache_disabled():
        _t, red_s = full_reducer(cq, db, engine="columnar")
        _t, red_p = full_reducer(cq, db, engine=_engine(2))
    for s, p in zip(red_s, red_p):
        assert list(s) == list(p)


# -------------------------------------------- arena cache / pool hygiene


def _scan(rels, head, eng, reduce=True):
    return list(ParallelBlockIterator(rels, head, reduce=reduce, engine=eng))


def test_arena_cache_cold_then_warm():
    """The first parallel enumeration over a relation list publishes its
    column arena; later ones over the same columns attach to the cached
    segment instead of re-copying."""
    invalidate_arena_cache()
    rels, head = _path_relations([500, 500, 150], seed=9)
    # reduce once up front: each iterator's own reduction would build
    # fresh column arrays, i.e. a different arena key
    rels = reduce_relations(build_join_tree(Hypergraph(
        {v for r in rels for v in r.variables},
        [frozenset(r.variables) for r in rels])), rels)
    eng = _engine(2)
    with obs.capture() as tracer:
        first = _scan(rels, head, eng, reduce=False)
        second = _scan(rels, head, eng, reduce=False)
    assert first == second
    assert tracer.counters.get("parallel.arena_cache_misses") == 1
    assert tracer.counters.get("parallel.arena_cache_hits") == 1
    stats = arena_cache_stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0
    assert all(r == 0 for r in stats["refs"].values())  # released per call
    invalidate_arena_cache()


def test_arena_cache_lru_eviction_and_invalidate():
    invalidate_arena_cache()
    eng = _engine(2)
    with obs.capture() as tracer:
        for seed in range(6):  # > ARENA_CACHE_LIMIT distinct column sets
            rels, head = _path_relations([120, 120, 40], seed=100 + seed)
            _scan(rels, head, eng)
    assert tracer.counters.get("parallel.arena_cache_misses") == 6
    assert tracer.counters.get("parallel.arena_cache_evictions", 0) >= 1
    stats = arena_cache_stats()
    assert 0 < stats["entries"] <= stats["limit"]
    invalidate_arena_cache()
    assert arena_cache_stats()["entries"] == 0


def test_shutdown_pools_clears_arena_cache_and_stats_shape():
    rels, head = _path_relations([200, 200, 60], seed=12)
    _scan(rels, head, _engine(2))
    assert arena_cache_stats()["entries"] >= 1
    stats = pool_stats()
    assert "arena_cache" in stats
    shutdown_pools()
    assert arena_cache_stats()["entries"] == 0


def test_pool_spawn_reuse_respawn_counters():
    shutdown_pools()
    with obs.capture() as tracer:
        pool = get_pool(2)
        again = get_pool(2)
    assert again is pool
    assert tracer.counters.get("parallel.pool_spawn") == 1
    assert tracer.counters.get("parallel.pool_reuse") == 1
    # kill the workers: the next request must respawn a healthy pool and
    # drop cached arenas so stale shm registrations cannot leak
    for p in pool.procs:
        p.terminate()
        p.join()
    assert not pool.alive()
    with obs.capture() as tracer:
        fresh = get_pool(2)
    assert tracer.counters.get("parallel.pool_respawn") == 1
    assert fresh is not pool and fresh.alive()
    assert arena_cache_stats()["entries"] == 0
    shutdown_pools()
