"""Unit tests for the cross-query plan/preprocessing cache
(repro.core.plancache) and its database-fingerprint invalidation."""

import pytest

from repro.core.plancache import (
    DEFAULT_MAXSIZE,
    ENV_VAR,
    PlanCache,
    cached_plan,
    clear_plan_cache,
    plan_cache,
    plan_cache_disabled,
    plan_cache_enabled,
    set_plan_cache_enabled,
)
from repro.data.database import Database
from repro.data.relation import Relation
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.eval.naive import evaluate_cq_naive
from repro.eval.yannakakis import full_reducer
from repro.logic.parser import parse_cq


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    set_plan_cache_enabled(None)
    yield
    clear_plan_cache()
    set_plan_cache_enabled(None)


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
    # sharing telemetry (process-global counters) rides along
    assert stats["symbol_workspace_hits"] >= 0
    assert stats["coalesced_semijoins"] >= 0
    cache.clear()
    expected = {"hits": 0, "misses": 0, "evictions": 0,
                "refreshes": 0, "refresh_overflows": 0,
                "refresh_fallbacks": 0,
                "entries": 0, "maxsize": 4}
    stats = cache.stats()
    assert {k: stats[k] for k in expected} == expected


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


def test_keys_distinguish_kind_engine_extra_and_db():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    db1, db2 = _db(), _db()
    keys = {
        PlanCache.key_for("a", q, db1, "tuple"),
        PlanCache.key_for("b", q, db1, "tuple"),
        PlanCache.key_for("a", q, db1, "columnar"),
        PlanCache.key_for("a", q, db1, "tuple", extra=7),
        PlanCache.key_for("a", q, db2, "tuple"),  # distinct id() per db
    }
    assert len(keys) == 5


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


def test_cached_plan_respects_disable_toggles(monkeypatch):
    db = _db()
    calls = []

    def build():
        calls.append(1)
        return len(calls)

    with plan_cache_disabled():
        assert not plan_cache_enabled()
        cached_plan("t", "q", db, "tuple", build)
        cached_plan("t", "q", db, "tuple", build)
    assert len(calls) == 2                    # no caching inside the scope
    assert plan_cache_enabled()               # restored on exit

    set_plan_cache_enabled(False)
    cached_plan("t", "q", db, "tuple", build)
    assert len(calls) == 3
    set_plan_cache_enabled(None)              # back to env default

    monkeypatch.setenv(ENV_VAR, "off")
    assert not plan_cache_enabled()
    monkeypatch.setenv(ENV_VAR, "1")
    assert plan_cache_enabled()


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
