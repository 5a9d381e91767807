"""Cross-query plan/preprocessing cache.

Constant-delay enumeration splits work into a *preprocessing* phase
(join-tree construction, atom materialisation + dictionary encoding,
full-reducer semijoins, free-connex projections) and an *enumeration*
phase whose delay the paper bounds.  Under repeated-query workloads —
Carmeli–Segoufin's motivation of answering the same query against a
slowly changing database, the ROADMAP's "heavy traffic" scenario — the
preprocessing phase is pure recomputation.  This module caches it.

:class:`PlanCache` is a small LRU keyed on

    (kind, query, engine name, extra, database fingerprint)

where the fingerprint (:meth:`repro.data.database.Database.fingerprint`)
combines each stored relation's process-unique ``serial``, its mutation
``version`` counter, and its cardinality, plus the number of explicit
domain additions — so any ``add``/``discard`` on any relation
invalidates every plan derived from that database, and a key never
matches another relation.  The cache holds relations only weakly: an
entry lives as long as every relation its key cites, and the first
cache call after one of them dies purges it.

Cached values are returned as-is: callers that hand mutable relations to
consumers must copy them first (see ``full_reducer``).  Enumerator-level
entries (prepared :class:`~repro.engine.enumerate.BlockIterator`
pipelines) are immutable after preprocessing and safely shared.

The cache is enabled by default; disable with ``REPRO_PLAN_CACHE=0``,
:func:`set_plan_cache_enabled`, or per-scope with :func:`plan_cache_disabled`.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Hashable, Iterator, List, Optional,
                    Set, Tuple)

from repro import obs
from repro.data.relation import DeathWatch

ENV_VAR = "REPRO_PLAN_CACHE"
INCREMENTAL_ENV_VAR = "REPRO_INCREMENTAL"
DEFAULT_MAXSIZE = 256

_MISS = object()


class PlanCache:
    """An LRU mapping plan keys to preprocessing artefacts."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        # (kind, query, engine, extra) -> most recent full key, so a miss
        # caused purely by a fingerprint change can find its predecessor
        # entry and refresh it instead of rebuilding from scratch
        self._latest: Dict[Hashable, Hashable] = {}
        # relation serial -> keys of the live entries citing it, so a
        # relation's death purges just its own entries
        self._citing: Dict[int, Set[Hashable]] = {}
        self._deaths = DeathWatch()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.refreshes = 0
        self.refresh_overflows = 0
        self.refresh_fallbacks = 0

    # ------------------------------------------------------------------ state

    def __len__(self) -> int:
        self._purge()
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._latest.clear()
        self._citing.clear()
        self._deaths.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.refreshes = 0
        self.refresh_overflows = 0
        self.refresh_fallbacks = 0

    def stats(self) -> dict:
        """This cache's counters and size, plus the hits, misses and
        variant hits of every registered engine's
        :class:`~repro.engine.symbols.SymbolWorkspace`, summed: per-symbol
        work sharing rides the same repeated-query motivation as the
        plan cache, so its counters surface here (and in doctor)
        alongside the plan hit rates."""
        from repro.engine import available_engines, get_engine

        self._purge()
        workspaces = [get_engine(name).workspace
                      for name in available_engines()]
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "refreshes": self.refreshes,
                "refresh_overflows": self.refresh_overflows,
                "refresh_fallbacks": self.refresh_fallbacks,
                "entries": len(self._entries), "maxsize": self.maxsize,
                "symbol_workspace_hits": sum(ws.hits for ws in workspaces),
                "symbol_workspace_misses":
                    sum(ws.misses for ws in workspaces),
                "symbol_workspace_variant_hits":
                    sum(ws.variant_hits for ws in workspaces)}

    # --------------------------------------------------------------- lifetime

    def watch(self, db) -> None:
        """Hold ``db``'s relations weakly: once one dies, the next cache
        call purges every entry whose key cites its serial."""
        for rel in db:
            self._deaths.watch(rel)

    @staticmethod
    def _serials(key: Hashable) -> Tuple[int, ...]:
        """The relation serials a :meth:`key_for` key cites."""
        if isinstance(key, tuple) and len(key) == 5 and key[4] is not None:
            return tuple(serial for _name, serial, _version, _len
                         in key[4][1])
        return ()

    def _drop(self, key: Hashable) -> None:
        """Remove ``key``'s entry, its refresh slot and its index rows."""
        del self._entries[key]
        if isinstance(key, tuple) and len(key) == 5 \
                and self._latest.get(key[:4]) == key:
            del self._latest[key[:4]]
        for serial in self._serials(key):
            keys = self._citing[serial]
            keys.discard(key)
            if not keys:
                del self._citing[serial]

    def _purge(self) -> None:
        """Drop every entry whose key cites a relation that died."""
        for serial in self._deaths.drain():
            for key in list(self._citing.get(serial, ())):
                self._drop(key)

    # ----------------------------------------------------------------- lookup

    @staticmethod
    def key_for(kind: str, query: Hashable, db, engine_name: str,
                extra: Hashable = ()) -> Hashable:
        """The cache key: query canonical form + database fingerprint."""
        return (kind, query, engine_name, extra,
                db.fingerprint() if db is not None else None)

    def get(self, key: Hashable) -> Any:
        """The cached value for ``key``, or the module-private miss
        sentinel (so ``None`` is a cacheable value)."""
        self._purge()
        value = self._entries.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return _MISS
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert ``value``; evicts the LRU entry beyond maxsize."""
        self._purge()
        self._entries[key] = value
        self._entries.move_to_end(key)
        for serial in self._serials(key):
            self._citing.setdefault(serial, set()).add(key)
        if isinstance(key, tuple) and len(key) == 5:
            self._latest[key[:4]] = key
        while len(self._entries) > self.maxsize:
            self._drop(next(iter(self._entries)))
            self.evictions += 1
            obs.count("plancache.evictions")
        return value

    # ---------------------------------------------------------------- refresh

    def predecessor(self, key: Hashable) -> Tuple[Any, Any]:
        """The live entry cached for ``key``'s (kind, query, engine,
        extra) under an *older* fingerprint: ``(prev_key, value)``, or
        ``(None, _MISS)`` when there is none to refresh from."""
        self._purge()
        if not (isinstance(key, tuple) and len(key) == 5):
            return None, _MISS
        prev_key = self._latest.get(key[:4])
        if prev_key is None or prev_key == key:
            return None, _MISS
        value = self._entries.get(prev_key, _MISS)
        if value is _MISS:
            return None, _MISS
        return prev_key, value

    def replace(self, prev_key: Hashable, key: Hashable, value: Any) -> Any:
        """Move a refreshed plan from its stale key to the current one."""
        self._purge()
        if prev_key in self._entries:
            self._drop(prev_key)
        self.refreshes += 1
        return self.put(key, value)


_GLOBAL = PlanCache()
_ENABLED: Optional[bool] = None  # None -> consult the environment
_INCREMENTAL: Optional[bool] = None  # None -> consult the environment


def plan_cache() -> PlanCache:
    """The process-wide cache instance."""
    return _GLOBAL


def plan_cache_enabled() -> bool:
    if _ENABLED is not None:
        return _ENABLED
    env = os.environ.get(ENV_VAR, "").strip().lower()
    return env not in ("0", "false", "off", "no")


def set_plan_cache_enabled(enabled: Optional[bool]) -> None:
    """Force the cache on/off process-wide (None resets to the
    ``REPRO_PLAN_CACHE`` environment default)."""
    global _ENABLED
    _ENABLED = enabled


@contextmanager
def plan_cache_disabled() -> Iterator[None]:
    """Temporarily bypass the cache (cold-path measurements, tests)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def incremental_enabled() -> bool:
    """Is delta-propagated plan refresh on?  Off by default: set
    ``REPRO_INCREMENTAL=1`` / ``--incremental`` (or call
    :func:`set_incremental_enabled`) to opt in."""
    if _INCREMENTAL is not None:
        return _INCREMENTAL
    env = os.environ.get(INCREMENTAL_ENV_VAR, "").strip().lower()
    return env in ("1", "true", "on", "yes")


def set_incremental_enabled(enabled: Optional[bool]) -> None:
    """Force incremental refresh on/off process-wide (None resets to
    the ``REPRO_INCREMENTAL`` environment default)."""
    global _INCREMENTAL
    _INCREMENTAL = enabled


@contextmanager
def incremental_scope(enabled: bool) -> Iterator[None]:
    """Temporarily force incremental refresh on or off (tests, CLI)."""
    global _INCREMENTAL
    previous = _INCREMENTAL
    _INCREMENTAL = enabled
    try:
        yield
    finally:
        _INCREMENTAL = previous


def clear_plan_cache() -> None:
    _GLOBAL.clear()


def _collect_deltas(db, old_fp, new_fp
                    ) -> Optional[Dict[str, List[Tuple[str, Tuple]]]]:
    """Per-relation effective ops taking ``old_fp`` to ``new_fp``.

    Returns ``None`` when the two fingerprints are not delta-comparable:
    a different count of explicit domain additions or relation line-up
    (those only change at ``add_domain_values`` and ``add_relation``,
    so a mismatch means a structurally different database, not a
    tuple-level update), or any per-relation delta log that has
    overflowed.  Tuple writes that bring in new values stay comparable:
    they reach the lazy domain through the relation versions, not the
    first field.
    """
    if old_fp is None or new_fp is None or old_fp[0] != new_fp[0]:
        return None
    old_rels, new_rels = old_fp[1], new_fp[1]
    if len(old_rels) != len(new_rels):
        return None
    deltas: Dict[str, List[Tuple[str, Tuple]]] = {}
    for (oname, oserial, over, _olen), (nname, nserial, nver, _nlen) in zip(
            old_rels, new_rels):
        if oname != nname or oserial != nserial:
            return None
        if over == nver:
            continue
        ops = db.relation(oname).deltas_since(over)
        if ops is None:
            return None
        deltas[oname] = ops
    return deltas


def cached_plan(kind: str, query: Hashable, db, engine_name: str,
                builder: Callable[[], Any], extra: Hashable = (),
                refresher: Optional[Callable[[Any, Dict[str, list]], Any]]
                = None) -> Any:
    """Fetch-or-build helper used by the preprocessing entry points.

    ``builder`` runs (and its result is cached, holding ``db``'s
    relations weakly) only on a miss or when caching is disabled.
    ``extra`` distinguishes same-query plans with different knobs (the
    enumeration block size).

    ``refresher`` opts the plan kind into delta propagation: when a
    lookup misses only because the database fingerprint moved, and
    :func:`incremental_enabled` is on, ``refresher(stale_value,
    deltas)`` is offered the predecessor entry plus the per-relation
    ``{name: [('+'|'-', tuple), ...]}`` ops that separate the two
    fingerprints.  Returning the caught-up value re-caches it under the
    new key; returning ``None`` (unsupported delta shape) — or any
    delta-log overflow — falls back to a cold ``builder`` run.
    Refreshers must validate support *before* mutating their state.
    """
    if not plan_cache_enabled():
        with obs.span("plan.build", kind=kind, cache="off"):
            return builder()
    cache = _GLOBAL
    with obs.span("plan.fingerprint", kind=kind):
        key = PlanCache.key_for(kind, query, db, engine_name, extra)
    value = cache.get(key)
    if value is not _MISS:
        obs.count("plancache.hits")
        return value
    obs.count("plancache.misses")
    if db is not None:
        cache.watch(db)
    if refresher is not None and db is not None and incremental_enabled():
        prev_key, stale = cache.predecessor(key)
        if stale is not _MISS:
            deltas = _collect_deltas(db, prev_key[4], key[4])
            if deltas is None:
                cache.refresh_overflows += 1
                obs.count("plancache.delta_overflow")
            else:
                n_ops = sum(len(ops) for ops in deltas.values())
                with obs.span("plan.refresh", kind=kind, ops=n_ops):
                    value = refresher(stale, deltas)
                if value is None:
                    cache.refresh_fallbacks += 1
                    obs.count("plancache.refresh_fallback")
                else:
                    obs.count("plancache.refresh")
                    obs.count("plancache.delta_applied", n_ops)
                    return cache.replace(prev_key, key, value)
    with obs.span("plan.build", kind=kind, cache="miss"):
        value = builder()
    return cache.put(key, value)
