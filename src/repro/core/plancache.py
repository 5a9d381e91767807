"""Cross-query plan/preprocessing cache.

Constant-delay enumeration splits work into a *preprocessing* phase
(join-tree construction, atom materialisation + dictionary encoding,
full-reducer semijoins, free-connex projections) and an *enumeration*
phase whose delay the paper bounds.  Under repeated-query workloads —
Carmeli–Segoufin's motivation of answering the same query against a
slowly changing database, the ROADMAP's "heavy traffic" scenario — the
preprocessing phase is pure recomputation.  This module caches it.

:class:`PlanCache` is a small LRU keyed on

    (kind, query, engine name, database fingerprint)

where the fingerprint (:meth:`repro.data.database.Database.fingerprint`)
combines each stored relation's process-unique ``serial``, its mutation
``version`` counter, and its cardinality, plus the number of explicit
domain additions — so any ``add``/``discard`` on any relation
invalidates every plan derived from that database, and a key never
matches another relation.  The cache holds relations only weakly: an
entry lives as long as every relation its key cites, and the first
cache call after one of them dies purges it.

Versions only grow, so an entry keyed on an older version of its
relations can never be hit again: :meth:`PlanCache.put` drops the entry
a new one supersedes (same kind, query, engine and relation serials),
and the cache holds one entry per plan of each live database.

The ``count`` slot of :func:`repro.counting.acq_count.count_acq` holds
an unweighted count's total, so a repeat on an unwritten database runs
no kernel.  A plan looked up with a ``refresher`` (the one kind that
is: a quantifier-free count's slot) is caught up from the delta logs
rather than rebuilt when only the fingerprint moved.

Cached values are returned as-is: callers that hand mutable relations to
consumers must copy them first (see ``full_reducer``).  Enumerator-level
entries (prepared :class:`~repro.engine.enumerate.BlockIterator`
pipelines) are immutable after preprocessing and safely shared.  A cold
run needs a database the cache has not seen (``db.copy()``) or an empty
cache (:func:`clear_plan_cache`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro import obs
from repro.data.relation import DeathWatch

DEFAULT_MAXSIZE = 256

_MISS = object()


class PlanCache:
    """An LRU mapping plan keys to preprocessing artefacts."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        # (kind, query, engine, relation serials) -> the live
        # entry's full key: the entry a newer fingerprint of the same
        # relations supersedes, and the predecessor a refresh starts from
        self._latest: Dict[Hashable, Hashable] = {}
        # relation serial -> keys of the live entries citing it, so a
        # relation's death purges just its own entries
        self._citing: Dict[int, Set[Hashable]] = {}
        self._deaths = DeathWatch()
        self.clear()

    # ------------------------------------------------------------------ state

    def __len__(self) -> int:
        self._purge()
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and restart the counters."""
        from repro.engine.symbols import COUNTS

        self._entries.clear()
        self._latest.clear()
        self._citing.clear()
        self._deaths.clear()
        self.hits = self.misses = self.evictions = 0
        self.refreshes = self.refresh_overflows = self.refresh_fallbacks = 0
        # stats() reports the process-wide counts since this snapshot
        self._symbols_at = {key: COUNTS[key] for key in (
            "symbol_workspace_hits", "symbol_workspace_misses",
            "symbol_workspace_variant_hits")}

    def stats(self) -> dict:
        """This cache's counters and size, plus the hits, misses and
        variant hits of the artefacts shared on stored relations
        (:mod:`repro.engine.symbols`) since the cache was made or last
        cleared: per-symbol work sharing rides the same repeated-query
        motivation as the plan cache, so its counters surface here
        alongside the plan hit rates."""
        from repro.engine.symbols import COUNTS

        self._purge()
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "refreshes": self.refreshes,
                "refresh_overflows": self.refresh_overflows,
                "refresh_fallbacks": self.refresh_fallbacks,
                "entries": len(self._entries), "maxsize": self.maxsize,
                **{key: COUNTS[key] - start
                   for key, start in self._symbols_at.items()}}

    # --------------------------------------------------------------- lifetime

    def watch(self, db) -> None:
        """Hold ``db``'s relations weakly: once one dies, the next cache
        call purges every entry whose key cites its serial."""
        for rel in db:
            self._deaths.watch(rel)

    @staticmethod
    def _serials(key: Hashable) -> Tuple[int, ...]:
        """The relation serials a :meth:`key_for` key cites."""
        if isinstance(key, tuple) and len(key) == 4 and key[3] is not None:
            return tuple(serial for _name, serial, _version, _len
                         in key[3][1])
        return ()

    @classmethod
    def _slot(cls, key: Hashable) -> Optional[Hashable]:
        """``key`` without the versions: (kind, query, engine, relation
        serials), or ``None`` for a key not from :meth:`key_for`."""
        if isinstance(key, tuple) and len(key) == 4:
            return key[:3] + (cls._serials(key),)
        return None

    def _drop(self, key: Hashable) -> None:
        """Remove ``key``'s entry, its refresh slot and its index rows."""
        del self._entries[key]
        slot = self._slot(key)
        if slot is not None and self._latest.get(slot) == key:
            del self._latest[slot]
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
    def key_for(kind: str, query: Hashable, db, engine_name: str) -> Hashable:
        """The cache key: query canonical form + database fingerprint."""
        return (kind, query, engine_name,
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
        """Insert ``value``, dropping the entry it supersedes (the same
        slot under older relation versions, which no lookup can hit
        again); evicts the LRU entry beyond maxsize."""
        self._purge()
        slot = self._slot(key)
        if slot is not None:
            prev_key = self._latest.get(slot)
            if prev_key is not None and prev_key != key:
                self._drop(prev_key)
            self._latest[slot] = key
        self._entries[key] = value
        self._entries.move_to_end(key)
        for serial in self._serials(key):
            self._citing.setdefault(serial, set()).add(key)
        while len(self._entries) > self.maxsize:
            self._drop(next(iter(self._entries)))
            self.evictions += 1
            obs.count("plancache.evictions")
        return value

    # ---------------------------------------------------------------- refresh

    def predecessor(self, key: Hashable) -> Tuple[Any, Any]:
        """The live entry cached for ``key``'s relations under an *older*
        fingerprint: ``(prev_key, value)``, or ``(None, _MISS)`` when
        there is none to refresh from."""
        self._purge()
        slot = self._slot(key)
        prev_key = self._latest.get(slot) if slot is not None else None
        if prev_key is None or prev_key == key:
            return None, _MISS
        return prev_key, self._entries[prev_key]


_GLOBAL = PlanCache()


def plan_cache() -> PlanCache:
    """The process-wide cache instance."""
    return _GLOBAL


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
                builder: Callable[[], Any],
                refresher: Optional[Callable[[Any, Dict[str, list]], Any]]
                = None) -> Any:
    """Fetch-or-build helper used by the preprocessing entry points.

    ``builder`` runs (and its result is cached, holding ``db``'s
    relations weakly) only on a miss.

    ``refresher`` opts the plan kind into delta propagation: when a
    lookup misses only because the database fingerprint moved,
    ``refresher(stale_value, deltas)`` is offered the predecessor entry
    plus the per-relation ``{name: [('+'|'-', tuple), ...]}`` ops that
    separate the two fingerprints.  Returning the caught-up value
    re-caches it under the new key; returning ``None`` (unsupported
    delta shape) — or any delta-log overflow — falls back to a cold
    ``builder`` run.
    Refreshers must validate support *before* mutating their state.
    """
    cache = _GLOBAL
    with obs.span("plan.fingerprint", kind=kind):
        key = PlanCache.key_for(kind, query, db, engine_name)
    value = cache.get(key)
    if value is not _MISS:
        obs.count("plancache.hits")
        return value
    obs.count("plancache.misses")
    if db is not None:
        cache.watch(db)
    if refresher is not None and db is not None:
        prev_key, stale = cache.predecessor(key)
        if stale is not _MISS:
            deltas = _collect_deltas(db, prev_key[3], key[3])
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
                    cache.refreshes += 1
                    # put drops the stale entry it was refreshed from
                    return cache.put(key, value)
    with obs.span("plan.build", kind=kind, cache="miss"):
        value = builder()
    return cache.put(key, value)
