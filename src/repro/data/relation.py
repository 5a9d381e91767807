"""Finite relations: named tuple sets with hash indexes.

A :class:`Relation` is the basic storage unit of the library.  It stores a
finite set of equal-length tuples and builds hash indexes over column
subsets lazily, so join algorithms get amortised O(1) probes without paying
for indexes they never use.

Tuples are stored in insertion order (dict-backed), which gives the linear
order on the encoding that the RAM model of the paper assumes (Section
2.3.1): iteration order is deterministic and stable.
"""

from __future__ import annotations

import itertools
import weakref
from collections import deque
from typing import (Any, Dict, Iterable, Iterator, List, NoReturn, Optional,
                    Sequence, Tuple)

from repro.errors import MalformedQueryError

Tup = Tuple[Any, ...]

# Per-relation delta-log bound, read when each log is built.
DEFAULT_DELTA_LOG_CAPACITY = 4096

# process-unique relation serials: never reused, unlike ``id()``
_SERIALS = itertools.count()


class DeltaLog:
    """A bounded ring of effective mutations between relation versions.

    Each *effective* ``add``/``discard`` (no-ops excluded) appends one
    ``('+' | '-', tuple)`` entry; entry ``k`` from the tail corresponds
    to the mutation that produced version ``current - k + 1``.  The ring
    holds at most ``capacity`` entries, so :meth:`since` can replay any
    version gap of up to ``capacity`` mutations and returns ``None``
    beyond that — the overflow signal that sends plan-cache consumers
    down the cold-invalidation path instead of a wrong incremental one.
    A zero capacity retains nothing, so every version gap overflows.
    """

    __slots__ = ("capacity", "_ops")

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = max(0, int(
            DEFAULT_DELTA_LOG_CAPACITY if capacity is None else capacity))
        self._ops: "deque[Tuple[str, Tup]]" = deque(maxlen=self.capacity)

    def __len__(self) -> int:
        return len(self._ops)

    def record(self, op: str, tup: Tup) -> None:
        """Append one effective mutation (the ring drops the oldest
        entry on overflow — detected later by :meth:`since`)."""
        self._ops.append((op, tup))

    def since(self, version: int, current: int
              ) -> Optional[List[Tuple[str, Tup]]]:
        """The ops taking state ``version`` to state ``current``, oldest
        first, or ``None`` when the gap fell off the ring (overflow) or
        is negative (a caller confused about version direction)."""
        gap = current - version
        if gap < 0 or gap > len(self._ops):
            return None
        if gap == 0:
            return []
        return list(itertools.islice(self._ops, len(self._ops) - gap,
                                     len(self._ops)))


class Relation:
    """A named finite relation of fixed arity.

    Parameters
    ----------
    name:
        The relation symbol this instance interprets.
    arity:
        Number of columns.  Every tuple added must have exactly this length.
    tuples:
        Optional initial contents; duplicates are silently collapsed.
        They are stored in one bulk pass: the relation starts at version
        ``len(self)``, as if each distinct row had been added in turn,
        with an empty delta log (no consumer can have seen an earlier
        version of an object still in its constructor).
    """

    __slots__ = ("name", "arity", "_tuples", "_indexes", "_memo",
                 "_version", "_deltalog", "serial", "__weakref__")

    def __init__(self, name: str, arity: int, tuples: Optional[Iterable[Sequence[Any]]] = None):
        if arity < 0:
            raise MalformedQueryError(f"relation {name!r}: arity must be >= 0, got {arity}")
        self.name = name
        self.arity = arity
        #: process-unique identity: (serial, version, len) is the
        #: plan-cache fingerprint (repro.core.plancache), and caches hold
        #: relations only weakly, so an entry dies with its relation
        self.serial = next(_SERIALS)
        # dict used as an insertion-ordered set
        self._tuples: Dict[Tup, None] = {}
        # (columns) -> {key tuple -> list of full tuples}
        self._indexes: Dict[Tuple[int, ...], Dict[Tup, List[Tup]]] = {}
        # artefacts derived from the current version (see `memo`)
        self._memo: Optional[Dict[Any, Any]] = None
        # bumped on every effective add/discard
        self._version = 0
        # effective mutations since (up to) `DEFAULT_DELTA_LOG_CAPACITY`
        # versions ago, for incremental plan refresh (repro.core.plancache)
        self._deltalog = DeltaLog()
        if tuples is not None:
            self._tuples = dict.fromkeys(map(tuple, tuples))
            if set(map(len, self._tuples)) - {arity}:
                bad = next(t for t in self._tuples if len(t) != arity)
                self._arity_error(bad)
            self._version = len(self._tuples)

    def _arity_error(self, t: Tup) -> NoReturn:
        raise MalformedQueryError(
            f"relation {self.name!r} has arity {self.arity}, got tuple of length {len(t)}"
        )

    # ------------------------------------------------------------------ basic

    def add(self, tup: Sequence[Any]) -> None:
        """Insert a tuple (idempotent)."""
        t = tuple(tup)
        if len(t) != self.arity:
            self._arity_error(t)
        if t in self._tuples:
            return  # no-op: version and delta log must not move
        self._tuples[t] = None
        self._version += 1
        self._memo = None
        self._deltalog.record("+", t)
        for cols, index in self._indexes.items():
            index.setdefault(tuple(t[c] for c in cols), []).append(t)

    def discard(self, tup: Sequence[Any]) -> None:
        """Remove a tuple if present, maintaining indexes incrementally.

        Each existing index drops the tuple from its bucket (O(bucket)
        per index) instead of being thrown away wholesale, so update
        sequences (e.g. :mod:`repro.dynamic.view`) never pay a full
        index rebuild on the next probe.
        """
        t = tuple(tup)
        if t not in self._tuples:
            return  # no-op: version and delta log must not move
        del self._tuples[t]
        self._version += 1
        self._memo = None
        self._deltalog.record("-", t)
        for cols, index in self._indexes.items():
            key = tuple(t[c] for c in cols)
            bucket = index.get(key)
            if bucket is None:
                continue
            try:
                bucket.remove(t)
            except ValueError:  # pragma: no cover - buckets mirror _tuples
                continue
            if not bucket:
                del index[key]

    def __contains__(self, tup: Sequence[Any]) -> bool:
        return tuple(tup) in self._tuples

    def __iter__(self) -> Iterator[Tup]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.arity == other.arity
            and self._tuples.keys() == other._tuples.keys()
        )

    def __hash__(self) -> int:  # pragma: no cover - relations are mutable
        raise TypeError("Relation objects are mutable and unhashable")

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, arity={self.arity}, size={len(self)})"

    def __reduce__(self):
        # pickle, copy.copy and copy.deepcopy rebuild through the
        # constructor: a copy is a new relation with its own serial and
        # tuple set, never an alias of the original's
        return (type(self), (self.name, self.arity, list(self._tuples)))

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every effective add/discard."""
        return self._version

    @property
    def memo(self) -> Dict[Any, Any]:
        """Artefacts derived from the current version, by key: the
        engines' encoded columns, probe caches and masked rows (see
        :mod:`repro.engine.symbols`).  The write that bumps the version
        drops it, so no artefact outlives the rows it was built from."""
        if self._memo is None:
            self._memo = {}
        return self._memo

    @property
    def delta_log(self) -> DeltaLog:
        """The bounded mutation log (see :class:`DeltaLog`)."""
        return self._deltalog

    def deltas_since(self, version: int
                     ) -> Optional[List[Tuple[str, Tup]]]:
        """Effective ops taking state ``version`` to the current state
        (oldest first), or ``None`` on delta-log overflow."""
        return self._deltalog.since(version, self._version)

    def tuples(self) -> List[Tup]:
        """Return the contents as a list, in insertion order."""
        return list(self._tuples)

    def copy(self, name: Optional[str] = None) -> "Relation":
        """Shallow copy, optionally renamed; indexes are not copied."""
        r = Relation(name or self.name, self.arity)
        r._tuples = dict(self._tuples)
        return r

    # --------------------------------------------------------------- indexing

    def index_on(self, columns: Sequence[int]) -> Dict[Tup, List[Tup]]:
        """Return (building if needed) a hash index over ``columns``.

        The index maps each distinct projection of a stored tuple on
        ``columns`` to the list of full tuples having that projection.
        Building costs one pass over the relation; subsequent calls are O(1).
        """
        cols = tuple(columns)
        for c in cols:
            if not 0 <= c < self.arity:
                raise IndexError(f"column {c} out of range for arity {self.arity}")
        if cols not in self._indexes:
            index: Dict[Tup, List[Tup]] = {}
            for t in self._tuples:
                index.setdefault(tuple(t[c] for c in cols), []).append(t)
            self._indexes[cols] = index
        return self._indexes[cols]

    def probe(self, columns: Sequence[int], key: Sequence[Any]) -> List[Tup]:
        """All tuples whose projection on ``columns`` equals ``key``."""
        return self.index_on(columns).get(tuple(key), [])

    def distinct(self, columns: Sequence[int]) -> List[Tup]:
        """Distinct projections of the relation on ``columns``."""
        return list(self.index_on(columns).keys())

    # ------------------------------------------------------------ set algebra

    def project(self, columns: Sequence[int], name: Optional[str] = None) -> "Relation":
        """Projection onto ``columns`` (duplicates removed)."""
        cols = tuple(columns)
        return Relation(name or f"{self.name}_proj", len(cols),
                        [tuple(t[c] for c in cols) for t in self._tuples])

    def select(self, predicate, name: Optional[str] = None) -> "Relation":
        """Selection: keep tuples for which ``predicate(tuple)`` is true."""
        return Relation(name or f"{self.name}_sel", self.arity,
                        filter(predicate, self._tuples))

    def semijoin(self, columns: Sequence[int], other: "Relation",
                 other_columns: Sequence[int]) -> "Relation":
        """Semijoin: tuples of ``self`` matching some tuple of ``other``.

        A tuple ``t`` survives iff some ``u`` in ``other`` has
        ``t[columns] == u[other_columns]``.  Runs in time linear in the two
        relations (given the indexes).
        """
        if len(tuple(columns)) != len(tuple(other_columns)):
            raise MalformedQueryError("semijoin column lists must have equal length")
        keys = other.index_on(other_columns)
        cols = tuple(columns)
        return Relation(self.name, self.arity,
                        [t for t in self._tuples
                         if tuple(t[c] for c in cols) in keys])

    def domain_values(self) -> set:
        """Set of all values occurring in any column."""
        return set(itertools.chain.from_iterable(self._tuples))

    def size_contribution(self) -> int:
        """Contribution of this relation to ||D|| (|R| * ar(R))."""
        return len(self._tuples) * self.arity


class DeathWatch:
    """Serials of watched relations that died since the last :meth:`drain`.

    Caches keyed on relation serials hold each relation through one
    weak reference, so an entry keeps nothing alive.  The reference's
    callback only records the serial: it can run inside any allocation
    (a cyclic garbage-collection pass), including while its owner
    iterates its own tables, so the owner purges later, at the start of
    its next call.
    """

    __slots__ = ("_refs", "_dead")

    def __init__(self):
        self._refs: Dict[int, "weakref.ref[Relation]"] = {}
        self._dead: List[int] = []

    def watch(self, rel: Relation) -> None:
        """Hold ``rel`` weakly; :meth:`drain` reports its death."""
        if rel.serial not in self._refs:
            dead = self._dead
            self._refs[rel.serial] = weakref.ref(
                rel, lambda _ref, serial=rel.serial: dead.append(serial))

    def drain(self) -> List[int]:
        """The serials recorded since the last call, now forgotten."""
        drained: List[int] = []
        while self._dead:
            serial = self._dead.pop()
            self._refs.pop(serial, None)
            drained.append(serial)
        return drained

    def clear(self) -> None:
        self._refs.clear()
        self._dead.clear()
