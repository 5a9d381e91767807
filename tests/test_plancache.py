"""Unit tests for the cross-query plan/preprocessing cache
(repro.core.plancache) and its database-fingerprint invalidation."""

import copy
import gc
import pickle
import weakref

import pytest

from repro import obs
from repro.core.plancache import (
    DEFAULT_MAXSIZE,
    PlanCache,
    cached_plan,
    clear_plan_cache,
    plan_cache,
)
from repro.core.planner import count, decide, enumerate_answers
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dynamic.delta import DeltaCounter
from repro.engine import use_engine
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.eval.naive import evaluate_cq_naive
from repro.eval.yannakakis import full_reducer
from repro.logic.parser import parse_cq

# columnar runs repeat every test at block size 7 (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("default_block_size")


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _db():
    return Database([
        Relation("R", 2, [(i, i % 3) for i in range(12)]),
        Relation("S", 2, [(i % 3, i) for i in range(12)]),
    ])


# --------------------------------------------------------------- PlanCache


def test_hit_miss_accounting():
    cache = PlanCache(maxsize=4)
    from repro.core.plancache import _MISS

    key = PlanCache.key_for("k", "q", None, "tuple")
    assert cache.get(key) is _MISS
    cache.put(key, "plan")
    assert cache.get(key) == "plan"
    expected = {"hits": 1, "misses": 1, "evictions": 0,
                "refreshes": 0, "refresh_overflows": 0,
                "refresh_fallbacks": 0,
                "entries": 1, "maxsize": 4}
    stats = cache.stats()
    assert {k: stats[k] for k in expected} == expected
    # the process-wide sharing telemetry rides along
    assert stats["symbol_workspace_hits"] >= 0
    cache.clear()
    expected = {"hits": 0, "misses": 0, "evictions": 0,
                "refreshes": 0, "refresh_overflows": 0,
                "refresh_fallbacks": 0,
                "entries": 0, "maxsize": 4,
                "symbol_workspace_hits": 0, "symbol_workspace_misses": 0,
                "symbol_workspace_variant_hits": 0}
    stats = cache.stats()
    assert {k: stats[k] for k in expected} == expected


def test_clear_restarts_the_workspace_counts():
    """The workspace keys count from the cache's making or last clear;
    clearing leaves the process-wide counts as they are."""
    from repro.engine.symbols import COUNTS
    from repro.eval.yannakakis import materialise_atoms

    keys = ("symbol_workspace_hits", "symbol_workspace_misses",
            "symbol_workspace_variant_hits")
    cache = PlanCache()
    # the base columns and the masked R(y, y): built, then reused
    q = parse_cq("Q(x, y) :- R(x, y), R(y, y)")
    db = _db()
    for _ in range(2):
        materialise_atoms(q, db, "columnar")
    assert all(cache.stats()[key] > 0 for key in keys)
    before = dict(COUNTS)
    cache.clear()
    assert dict(COUNTS) == before
    assert [cache.stats()[key] for key in keys] == [0, 0, 0]
    materialise_atoms(q, db, "columnar")
    assert [cache.stats()[key] for key in keys] == \
        [COUNTS[key] - before.get(key, 0) for key in keys]


def test_none_is_a_cacheable_value():
    cache = PlanCache()
    key = PlanCache.key_for("k", "q", None, "tuple")
    cache.put(key, None)
    assert cache.get(key) is None
    assert cache.stats()["hits"] == 1


def test_lru_eviction_order():
    cache = PlanCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")       # refresh a; b becomes LRU
    cache.put("c", 3)    # evicts b
    assert len(cache) == 2
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    misses_before = cache.misses
    from repro.core.plancache import _MISS

    assert cache.get("b") is _MISS
    assert cache.misses == misses_before + 1


# ------------------------------------------------- fingerprint / versioning


def test_relation_version_counts_effective_mutations():
    r = Relation("R", 1)
    v0 = r.version
    r.add((1,))
    assert r.version == v0 + 1
    r.add((1,))                  # duplicate: no effect, no bump
    assert r.version == v0 + 1
    r.discard((1,))
    assert r.version == v0 + 2
    r.discard((1,))              # absent: no effect, no bump
    assert r.version == v0 + 2


def test_fingerprint_changes_on_mutation():
    db = _db()
    fp0 = db.fingerprint()
    assert db.fingerprint() == fp0            # stable while untouched
    db.relation("R").add((99, 99))
    fp1 = db.fingerprint()
    assert fp1 != fp0
    db.relation("R").discard((99, 99))
    assert db.fingerprint() != fp1            # version is monotone


def test_keys_distinguish_kind_engine_and_db():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    db1, db2 = _db(), _db()
    keys = {
        PlanCache.key_for("a", q, db1, "tuple"),
        PlanCache.key_for("b", q, db1, "tuple"),
        PlanCache.key_for("a", q, db1, "columnar"),
        PlanCache.key_for("a", q, db2, "tuple"),  # distinct serials per db
    }
    assert len(keys) == 4


# ------------------------------------------------------------- cached_plan


def test_cached_plan_builds_once_then_hits():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    db = _db()
    calls = []

    def build():
        calls.append(1)
        return "artefact"

    assert cached_plan("t", q, db, "tuple", build) == "artefact"
    assert cached_plan("t", q, db, "tuple", build) == "artefact"
    assert len(calls) == 1
    db.relation("S").add((50, 51))
    assert cached_plan("t", q, db, "tuple", build) == "artefact"
    assert len(calls) == 2                    # mutation invalidated the key


def test_global_cache_defaults():
    cache = plan_cache()
    assert cache.maxsize == DEFAULT_MAXSIZE


# ----------------------------------------------- integration with the stack


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_full_reducer_warm_results_are_isolated_copies(engine):
    q = parse_cq("Q(x, z) :- R(x, z), S(z, y)")
    db = _db()
    _tree, first = full_reducer(q, db, engine=engine)
    baseline = [set(r) for r in first]
    # mutating what a caller received must not corrupt the cached plan
    first[0].add((777, 777))
    _tree, second = full_reducer(q, db, engine=engine)
    assert [set(r) for r in second] == baseline
    assert plan_cache().hits >= 1


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_warm_enumeration_matches_cold(engine):
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    db = _db()
    expected = evaluate_cq_naive(q, db)
    cold = set(FreeConnexEnumerator(q, db, engine=engine))
    warm = set(FreeConnexEnumerator(q, db, engine=engine))
    assert cold == warm == expected
    assert plan_cache().hits >= 1
    # mutation: the next run is a miss and sees the new data
    db.relation("R").add((42, 0))
    after = set(FreeConnexEnumerator(q, db, engine=engine))
    assert after == evaluate_cq_naive(q, db)
    assert (42,) in after


# ------------------------------------------------------------- lifetimes

ENGINES = pytest.mark.parametrize("engine", ["tuple", "columnar"])
# what a written database's counts keep in their slots: the cold total,
# rebuilt after each write, or a maintained ``DeltaCounter``
INCREMENTAL = pytest.mark.parametrize("incremental", [False, True],
                                      ids=["cold", "incremental"])
# a free-connex query, one whose masked atom R(x, x) rides the stored
# relation's memo on both engines, and a full one (its count keeps a
# DeltaCounter once the database is written)
QUERIES = ["Q(x) :- R(x, z), S(z, y)", "Q(x) :- R(x, x), S(x, y)",
           "Q(x, z, y) :- R(x, z), S(z, y)"]


def _run_all_tasks(db, engine):
    with use_engine(engine):
        for text in QUERIES:
            q = parse_cq(text)
            count(q, db)
            decide(parse_cq("Q() :-" + text.split(":-")[1]), db)
            list(enumerate_answers(q, db))


@ENGINES
def test_stats_count_the_workspace_events_the_tracer_sees(engine):
    """``stats()`` reports the process-wide counts of the artefacts
    memoised on stored relations: over a cold and then a warm run, each
    moves by the captured tracer's counter of the same name."""
    db = _db()
    db.relation("R").add((5, 5))        # a row the masked atom keeps
    misses = {}
    for run in ("cold", "warm"):
        before = plan_cache().stats()
        with obs.capture() as t:
            _run_all_tasks(db, engine)
        after = plan_cache().stats()
        for key in ("symbol_workspace_hits", "symbol_workspace_misses",
                    "symbol_workspace_variant_hits"):
            assert after[key] - before[key] == \
                t.counters.get("engine." + key, 0), (run, key)
        misses[run] = t.counters.get("engine.symbol_workspace_misses", 0)
    assert misses["cold"] > 0


def _keys_citing(serials):
    return [key for key in plan_cache()._entries
            if set(PlanCache._serials(key)) & serials]


def _write(db, row, incremental):
    """Add ``row`` to R.  A cold write also adds and discards a scratch
    row 40 times: 81 logged ops pass the cost rule of
    ``DeltaCounter.caught_up`` (a tenth of the counted rows plus 4, at
    most 11 on these databases), so the next count rebuilds its slot
    cold instead of seeding or refreshing a maintained state."""
    rel = db.relation("R")
    rel.add(row)
    if not incremental:
        for _ in range(40):
            rel.add((-1, -2))
            rel.discard((-1, -2))


def _holds_state():
    return any(isinstance(value, DeltaCounter)
               for value in plan_cache()._entries.values())


@ENGINES
@INCREMENTAL
@pytest.mark.parametrize("cyclic", [False, True], ids=["refcount", "cycle"])
def test_dropped_database_leaves_both_caches(engine, incremental, cyclic):
    db = _db()
    db.relation("R").add((5, 5))        # a row the masked atom keeps
    _run_all_tasks(db, engine)
    _write(db, (7, 7), incremental)
    _run_all_tasks(db, engine)
    assert _holds_state() == incremental
    serials = {rel.serial for rel in db}
    assert _keys_citing(serials)
    alive = weakref.ref(db.relation("R"))
    gc.disable()
    try:
        if cyclic:
            holder = [db]
            holder.append(holder)
            del holder
        del db
        assert (alive() is not None) == cyclic
    finally:
        gc.enable()
    gc.collect()
    assert alive() is None              # no cache entry kept it alive
    len(plan_cache())                   # one cache call purges
    assert _keys_citing(serials) == []


@ENGINES
@INCREMENTAL
def test_new_relation_never_matches_a_dead_one(engine, incremental):
    q = parse_cq(QUERIES[0])
    full = parse_cq(QUERIES[2])
    expected = evaluate_cq_naive(q, _db())
    written = _db()
    written.relation("R").add((100, 0))
    # the oracle runs on its own database: its recursive closure keeps
    # the database it evaluates alive until a garbage collection
    expected_count = len(evaluate_cq_naive(full, written))
    cache = plan_cache()
    serials = []
    for _ in range(200):
        db = _db()
        serials.extend(rel.serial for rel in db)
        hits = cache.hits
        assert set(FreeConnexEnumerator(q, db, engine=engine)) == expected
        assert cache.hits == hits       # every lookup on a new db missed
        # leave a count slot keyed on these serials for the next db to miss
        count(full, db, engine=engine)
        _write(db, (100, 0), incremental)
        assert count(full, db, engine=engine) == expected_count
        assert _holds_state() == incremental
        del db
    assert len(set(serials)) == len(serials)
    len(cache)                          # one cache call purges
    assert _keys_citing(set(serials)) == []


COPIES = {
    "Relation.copy": lambda db: Database([rel.copy() for rel in db]),
    "copy.copy": lambda db: Database([copy.copy(rel) for rel in db]),
    "copy.deepcopy": copy.deepcopy,
    "pickle": lambda db: pickle.loads(pickle.dumps(db)),
    "Database.copy": lambda db: db.copy(),
}


@ENGINES
@INCREMENTAL
@pytest.mark.parametrize("how", sorted(COPIES))
def test_copies_get_fresh_serials(engine, incremental, how):
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    full = parse_cq(QUERIES[2])
    original = _db()
    assert set(enumerate_answers(q, original, engine=engine)) \
        == evaluate_cq_naive(q, original)
    # the original's count slot, which its write below makes stale
    assert count(full, original, engine=engine) \
        == len(evaluate_cq_naive(full, original))
    dup = COPIES[how](original)
    assert {rel.serial for rel in dup}.isdisjoint(
        rel.serial for rel in original)
    # the same version and length, but different tuples
    r1, r2 = original.relation("R"), dup.relation("R")
    _write(original, (100, 0), incremental)
    _write(dup, (200, 1), incremental)
    for lagging, leading in ((r1, r2), (r2, r1)):
        while lagging.version < leading.version:
            lagging.add((-1, -1))
            lagging.discard((-1, -1))
    assert (r1.version, len(r1)) == (r2.version, len(r2))
    for db in (original, dup):
        assert set(enumerate_answers(q, db, engine=engine)) \
            == evaluate_cq_naive(q, db)
        assert count(q, db, engine=engine) == len(evaluate_cq_naive(q, db))
        assert count(full, db, engine=engine) \
            == len(evaluate_cq_naive(full, db))
    assert _holds_state() == incremental


def _assert_index_matches_entries(cache):
    """The serial -> keys index names exactly the live keys, and every
    refresh slot names a live entry."""
    indexed = set().union(*cache._citing.values())
    assert indexed == {key for key in cache._entries
                       if PlanCache._serials(key)}
    assert set(cache._latest.values()) <= set(cache._entries)


@ENGINES
def test_serial_index_holds_only_live_keys(engine):
    """Refreshes move a long-lived relation's entries from key to key,
    and the entries of other live databases fill the LRU until it
    evicts; the serial -> keys index must forget both.  The query is
    quantifier-free, so its count is the plan that refreshes."""
    q = parse_cq("Q(x, z, y) :- R(x, z), S(z, y)")
    db = _db()
    others = []
    cache = plan_cache()
    for i in range(500):
        db.relation("R").add((1000 + i, i % 3))
        count(q, db, engine=engine)
        others.append(_db())
        count(q, others[-1], engine=engine)
    assert cache.refreshes > 0 and cache.evictions > 0
    _assert_index_matches_entries(cache)


@ENGINES
@INCREMENTAL
def test_writes_leave_one_entry_per_plan_kind(engine, incremental):
    """Versions only grow, so a write strands every entry keyed on the
    old version; the entry that supersedes it drops it, and 50
    write-and-query rounds leave one entry per plan kind and query,
    none of them evicted, whether the counts refresh a maintained
    state or rebuild cold."""
    db = _db()
    cache = plan_cache()
    for i in range(50):
        _write(db, (1000 + i, i % 3), incremental)
        _run_all_tasks(db, engine)
    plans = [key[:2] for key in cache._entries]
    assert plans and len(plans) == len(set(plans))
    assert cache.evictions == 0
    assert _holds_state() == incremental
    _assert_index_matches_entries(cache)


@ENGINES
def test_two_databases_refresh_every_round(engine):
    """Each database refreshes from its own predecessor, however their
    writes and counts interleave."""
    q = parse_cq("Q(x, z, y) :- R(x, z), S(z, y)")
    dbs = [_db(), _db()]
    cache = plan_cache()
    for db in dbs:
        count(q, db, engine=engine)
    for i in range(20):
        for db in dbs:
            db.relation("R").add((1000 + i, i % 3))
            refreshes = cache.refreshes
            assert count(q, db, engine=engine) \
                == len(evaluate_cq_naive(q, db))
            assert cache.refreshes == refreshes + 1
    assert cache.refresh_overflows == 0
    assert len(cache) == len(dbs)

