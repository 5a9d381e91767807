"""Columnar relational kernel: dictionary-encoded numpy columns.

A :class:`ColumnarRelation` stores one int64 numpy array per variable
(column); arbitrary Python values are mapped to dense integer codes by a
shared :class:`ValueDictionary`, so every relational operation reduces to
integer-key kernels:

* **semijoin** — joint group-id computation over the shared columns of the
  two operands, then a dense boolean membership mask (linear after the
  grouping);
* **natural join** — sort-merge on joint group ids: argsort the build
  side, ``searchsorted`` the probe side, expand matches with
  ``repeat``/``cumsum`` arithmetic (no per-tuple Python);
* **project / distinct** — group ids plus first-occurrence selection, so
  insertion order is preserved like the tuple backend;
* **group-count** — :func:`acyclic_join_messages`, the vectorized
  acyclic counting message passing (Theorem 4.21) behind
  :mod:`repro.counting.acq_count`, with its grouping memoised on the
  relations.

The class is duck-compatible with :class:`repro.eval.join.VarRelation`
(``variables``, ``position``, ``project``, ``semijoin``, ``join``,
``index_on``, ``probe``, iteration, ...), so every join-tree algorithm
runs unmodified on either backend; hash-index probes fall back to a
decoded per-relation dict index, which keeps enumeration correct while
the bulk passes (full reducer, joins, counting) stay vectorized.

Grouping is sort-free on dense keys.  `group_ids` keeps ids below
``max(1024, 4n)``, so membership masks, group sums and first occurrences
are scatters over that range, and semijoin, project/distinct and the
counting messages run in O(n).  Three passes still sort: the natural
join's argsort of its build side, the argsort inside
:class:`repro.engine.enumerate._BatchProbe`, and the `np.unique`
re-densification of sparse keys (in `group_ids` and in
`_unique_inverse`'s fallback).  Those keep an O(n log n) worst case — a
log factor over the RAM-model hash bounds of the paper, which leaves the
measured scaling *shapes* intact (see
``benchmarks/test_bench_engines.py``).
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import JoinTree, cached_join_tree
from repro.logic.terms import Constant, Variable

Tup = Tuple[Any, ...]

_INT_KINDS = "iu"


class ValueDictionary:
    """A bijective value <-> int64 code dictionary shared by columns.

    Codes are assigned densely in first-seen order.  All relations taking
    part in one computation must share the dictionary so that per-column
    codes are directly comparable across relations (the default global
    dictionary makes this automatic).
    """

    __slots__ = ("_codes", "_values", "_table", "__weakref__")

    def __init__(self) -> None:
        self._codes: Dict[Any, int] = {}
        self._values: List[Any] = []
        self._table: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._values)

    def encode(self, value: Any) -> int:
        """Code of ``value``, assigning a fresh one if needed."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def code_of(self, value: Any) -> Optional[int]:
        """Code of ``value`` or None if it was never interned."""
        return self._codes.get(value)

    def decode(self, code: int) -> Any:
        return self._values[code]

    def encode_values(self, values: Sequence[Any]) -> np.ndarray:
        """Encode a Python sequence into an int64 code array.

        Known values are looked up in one C-level ``map`` pass; only the
        misses go through :meth:`encode`, in sequence order, so fresh
        codes are still assigned in first-seen order.
        """
        codes = list(map(self._codes.get, values))
        if None in codes:
            encode = self.encode
            codes = [encode(v) if c is None else c
                     for v, c in zip(values, codes)]
        return np.array(codes, dtype=np.int64)

    def encode_column(self, column: np.ndarray) -> np.ndarray:
        """Encode one raw column, vectorized for integer dtypes.

        Integer columns are encoded through their (few) distinct values:
        fresh codes go to the unseen ones in ascending order, and one
        gather through the unique-inverse encodes the bulk.
        """
        arr = np.asarray(column)
        if arr.dtype.kind in _INT_KINDS and arr.size:
            uniq, inverse = _unique_inverse(arr)
            return self.encode_values(uniq.tolist())[inverse]
        return self.encode_values(list(column))

    def decode_table(self) -> np.ndarray:
        """Object-array lookup table ``table[code] -> value`` (cached).

        Codes are append-only, so a cached table is valid iff its length
        still matches; the block-emission path decodes one gather per
        block instead of rebuilding the table each time.
        """
        if self._table is None or len(self._table) != len(self._values):
            table = np.empty(len(self._values), dtype=object)
            table[:] = self._values
            self._table = table
        return self._table

    def decode_column(self, codes: np.ndarray) -> np.ndarray:
        """Decode a code array into an object array of original values."""
        return self.decode_table()[codes]


def _unique_inverse(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(arr, return_inverse=True)`` of a 1-d integer array.

    When int64 values span a range at most twice their count, a presence
    bitmap over the range gives the same output in O(n + range), without
    the sort.  Empty, sparse and other-dtype arrays take ``np.unique``.
    """
    if arr.dtype == np.int64 and arr.size:
        lo, hi = int(arr.min()), int(arr.max())
        if hi - lo < 2 * arr.size:
            offsets = arr - lo
            present = np.zeros(hi - lo + 1, dtype=bool)
            present[offsets] = True
            slot = np.cumsum(present) - 1
            return np.flatnonzero(present) + lo, slot[offsets]
    uniq, inverse = np.unique(arr, return_inverse=True)
    return uniq, inverse.reshape(-1)


_DEFAULT_DICTIONARY = ValueDictionary()


def default_dictionary() -> ValueDictionary:
    """The process-wide dictionary used when none is given explicitly."""
    return _DEFAULT_DICTIONARY


# ------------------------------------------------------------------ grouping


def group_ids(columns: Sequence[np.ndarray], length: int
              ) -> Tuple[np.ndarray, int]:
    """Dense group ids of the row tuples formed by ``columns``.

    Returns ``(ids, cardinality)`` with ``ids`` an int64 array of length
    ``length`` and every id in ``[0, cardinality)``.  Rows are in the same
    group iff they agree on every column.  Multi-column keys are packed
    pairwise with re-densification, so intermediate products never
    overflow int64.
    """
    if not columns:
        return np.zeros(length, dtype=np.int64), 1
    acc = columns[0]
    card = int(acc.max()) + 1 if acc.size else 1
    for col in columns[1:]:
        ccard = int(col.max()) + 1 if col.size else 1
        if card > 1 and ccard > (2 ** 62) // card:
            uniq, inverse = np.unique(acc, return_inverse=True)
            acc = inverse.reshape(-1)
            card = len(uniq) if len(uniq) else 1
        acc = acc * ccard + col
        card = card * ccard
    if card > max(1024, 4 * length):
        uniq, inverse = np.unique(acc, return_inverse=True)
        acc = inverse.reshape(-1)
        card = len(uniq) if len(uniq) else 1
    return acc.astype(np.int64, copy=False), int(card)


def matching_rows(columns: Sequence[np.ndarray], n: int,
                  other: Sequence[np.ndarray], m: int) -> np.ndarray:
    """Mask of the first ``n`` rows of ``columns`` that equal one of
    the first ``m`` rows of ``other`` (a semijoin, in O(n + m) after
    the grouping)."""
    joint = [np.concatenate([a[:n], b[:m]]) for a, b in zip(columns, other)]
    ids, card = group_ids(joint, n + m)
    present = np.zeros(card, dtype=bool)
    present[ids[n:]] = True
    return present[ids[:n]]


def first_occurrences(ids: np.ndarray, card: int) -> np.ndarray:
    """Indices of the first row of each group, in insertion order.

    ``ids`` are dense group ids in ``[0, card)`` (see :func:`group_ids`).
    A scatter-min of row indices finds each group's first row, and a
    bitmap over the rows reads them back in row order: O(n + card), no
    sort.
    """
    n = len(ids)
    if card == 1:               # one group, first met at row 0
        return np.zeros(min(n, 1), dtype=np.int64)
    first = np.full(card, n, dtype=np.int64)
    np.minimum.at(first, ids, np.arange(n, dtype=np.int64))
    # absent groups keep ``n`` and land in the spare last slot
    is_first = np.zeros(n + 1, dtype=bool)
    is_first[first] = True
    return np.flatnonzero(is_first[:n])


# ----------------------------------------------------------------- relation


class ColumnarRelation:
    """A distinct set of rows over named variables, stored by column.

    Duck-compatible with :class:`repro.eval.join.VarRelation`; rows are
    kept distinct as an invariant (the constructor and every operation
    deduplicate where needed) and first-insertion order is preserved.
    """

    __slots__ = ("variables", "_positions", "_columns", "_nrows",
                 "_pending", "_indexes", "_dict", "_decoded",
                 "_probecache", "_version")

    def __init__(self, variables: Sequence[Variable],
                 tuples: Optional[Iterable[Tup]] = None,
                 dictionary: Optional[ValueDictionary] = None):
        self.variables: Tuple[Variable, ...] = tuple(variables)
        self._positions: Dict[Variable, int] = {
            v: i for i, v in enumerate(self.variables)}
        if len(self._positions) != len(self.variables):
            raise ValueError("duplicate variables in ColumnarRelation schema")
        # `is not None`, not truthiness: an empty ValueDictionary is falsy
        # (it has __len__) but must still be honoured as the caller's
        # dictionary rather than silently aliasing the global default
        self._dict = dictionary if dictionary is not None else default_dictionary()
        self._columns: List[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in self.variables]
        self._nrows = 0
        self._pending: List[Tup] = []
        self._indexes: Dict[Tuple[Variable, ...], Dict[Tup, List[Tup]]] = {}
        self._decoded: Optional[List[Tup]] = None
        self._probecache: Dict[Any, Any] = {}
        self._version = 0
        if tuples is not None:
            for t in tuples:
                self.add(t)
            self._flush()

    # -------------------------------------------------------------- plumbing

    @classmethod
    def from_codes(cls, variables: Sequence[Variable],
                   columns: Sequence[np.ndarray], nrows: int,
                   dictionary: ValueDictionary,
                   dedupe: bool = False) -> "ColumnarRelation":
        """Wrap already-encoded columns (no copy unless deduping)."""
        rel = cls(variables, dictionary=dictionary)
        cols = [np.ascontiguousarray(c, dtype=np.int64) for c in columns]
        if dedupe:
            cols, nrows = _dedupe_columns(cols, nrows)
        rel._columns = cols
        rel._nrows = int(nrows)
        return rel

    def _flush(self) -> None:
        """Fold pending Python rows into the column arrays."""
        if not self._pending:
            return
        rows = self._pending
        self._pending = []
        new_cols = _encode_rows(rows, len(self.variables), self._dict)
        old_nrows = self._nrows
        if old_nrows:
            cols = [np.concatenate([old, new])
                    for old, new in zip(self._columns, new_cols)]
        else:
            cols = new_cols
        cols, nrows = _dedupe_columns(cols, old_nrows + len(rows))
        if nrows == old_nrows:
            # every pending row was already present (dedupe kept exactly
            # the old prefix): a no-op mutation keeps the old arrays, the
            # version, and every probe cache built on them warm
            return
        self._columns, self._nrows = cols, nrows
        self._invalidate()

    def _invalidate(self) -> None:
        self._indexes = {}
        self._decoded = None
        # replace, never mutate: copies sharing the old cache (see
        # ``copy``) keep their still-valid probes for the old columns
        self._probecache = {}
        self._version += 1

    @property
    def version(self) -> int:
        """Mutation counter (mirrors :attr:`repro.data.relation.Relation.
        version`): bumps whenever pending rows are folded in, so derived
        structures keyed on a version snapshot self-invalidate."""
        self._flush()
        return self._version

    def cached_probe(self, key: Any, builder, against: Any = None):
        """Memoise a derived probe structure on this relation's columns.

        ``builder`` is called once per ``key`` per column version; the
        result (e.g. a sorted-order ``_BatchProbe`` permutation) is
        reused by every consumer holding this relation *or a copy of
        it* — ``copy`` shares the cache dict, and any later mutation
        swaps in a fresh dict (:meth:`_invalidate`) rather than mutating
        the shared one, so stale entries are unreachable by
        construction.  Skips re-sorting on warm plan-cache runs and in
        repeated enumerator builds over the same reduced relations.

        An entry that also reads another relation's structure names it
        as ``against``.  The entry holds that object by reference, and a
        lookup against any other object rebuilds it: an ``is`` test, so
        an entry never serves columns it was not built from, and a freed
        object's reused address never matches.
        """
        self._flush()
        held = self._probecache.get(key)
        if held is not None and held[0] is against:
            obs.count("kernel.probe_cache_hits")
            return held[1]
        obs.count("kernel.probe_cache_misses")
        entry = builder()
        self._probecache[key] = (against, entry)
        return entry

    def batch_probe(self, probe_vars: Sequence[Variable]):
        """The batch probe structure over ``probe_vars``, memoised on the
        relation (see :func:`repro.engine.enumerate.build_probe`).

        Keyed by *column positions*, not variable names: a probe depends
        only on the column arrays, so two same-symbol atoms sharing one
        cache dict (the stored relation's memo, :mod:`repro.engine.symbols`)
        resolve ``R(x, y)`` and ``R(u, v)`` probing column 0 to the same
        entry."""
        from repro.engine.enumerate import _BatchProbe

        self._flush()
        positions = tuple(self._positions[v] for v in probe_vars)
        cols = self._columns
        nrows = self._nrows
        return self.cached_probe(
            ("batch_probe", positions),
            lambda: _BatchProbe([cols[p] for p in positions], nrows))

    def column(self, v: Variable) -> np.ndarray:
        """The code column of variable ``v``."""
        self._flush()
        return self._columns[self._positions[v]]

    @property
    def dictionary(self) -> ValueDictionary:
        return self._dict

    def _coerce(self, other: Any) -> "ColumnarRelation":
        """View ``other`` (columnar or tuple-backed) through this
        relation's dictionary."""
        if isinstance(other, ColumnarRelation):
            if other._dict is self._dict:
                other._flush()
                return other
            return type(self)(other.variables, iter(other),
                              dictionary=self._dict)
        return type(self)(other.variables, iter(other),
                          dictionary=self._dict)

    # ----------------------------------------------------------------- basics

    def add(self, tup: Tup) -> None:
        t = tuple(tup)
        if len(t) != len(self.variables):
            raise ValueError(
                f"tuple length {len(t)} does not match schema {self.variables}"
            )
        self._pending.append(t)

    def __len__(self) -> int:
        self._flush()
        return self._nrows

    def __iter__(self) -> Iterator[Tup]:
        return iter(self.tuples())

    def __contains__(self, tup: Tup) -> bool:
        self._flush()
        t = tuple(tup)
        if len(t) != len(self.variables):
            return False
        if not self.variables:
            return self._nrows > 0
        mask = np.ones(self._nrows, dtype=bool)
        for value, col in zip(t, self._columns):
            code = self._dict.code_of(value)
            if code is None:
                return False
            mask &= col == code
        return bool(mask.any())

    def __repr__(self) -> str:
        names = ",".join(v.name for v in self.variables)
        return f"ColumnarRelation([{names}], size={len(self)})"

    def position(self, v: Variable) -> int:
        return self._positions[v]

    def has_variable(self, v: Variable) -> bool:
        return v in self._positions

    def assignment(self, tup: Tup) -> Dict[Variable, Any]:
        return {v: tup[i] for i, v in enumerate(self.variables)}

    def tuples(self) -> List[Tup]:
        """Decode the rows into Python tuples (cached)."""
        self._flush()
        if self._decoded is None:
            if not self.variables:
                self._decoded = [()] * self._nrows
            else:
                decoded = [self._dict.decode_column(c) for c in self._columns]
                self._decoded = list(zip(*decoded)) if self._nrows else []
        return list(self._decoded)

    def copy(self) -> "ColumnarRelation":
        self._flush()
        dup = type(self).from_codes(
            self.variables, self._columns, self._nrows, self._dict)
        # identical columns -> identical probes; share the cache (a
        # mutation on either side installs a fresh dict, leaving the
        # other's view intact)
        dup._probecache = self._probecache
        return dup

    def to_varrelation(self):
        """Materialise as a tuple-backed VarRelation."""
        from repro.eval.join import VarRelation

        return VarRelation(self.variables, self.tuples())

    # --------------------------------------------------------------- indexing

    def index_on(self, variables: Sequence[Variable]) -> Dict[Tup, List[Tup]]:
        """Tuple-compatible hash index (decoded); the bridge that lets
        per-tuple enumerators run unchanged on columnar data."""
        vars_key = tuple(variables)
        if vars_key not in self._indexes:
            positions = [self._positions[v] for v in vars_key]
            index: Dict[Tup, List[Tup]] = {}
            for t in self.tuples():
                index.setdefault(tuple(t[p] for p in positions), []).append(t)
            self._indexes[vars_key] = index
        return self._indexes[vars_key]

    def probe(self, variables: Sequence[Variable],
              key: Sequence[Any]) -> List[Tup]:
        return self.index_on(tuple(variables)).get(tuple(key), [])

    # -------------------------------------------------------------- operators

    def project(self, variables: Sequence[Variable]) -> "ColumnarRelation":
        obs.count("kernel.project")
        self._flush()
        vars_out = tuple(variables)
        cols = [self._columns[self._positions[v]] for v in vars_out]
        dedupe = set(vars_out) != set(self.variables)
        return type(self).from_codes(
            vars_out, cols, self._nrows, self._dict, dedupe=dedupe)

    def select_mask(self, mask: np.ndarray) -> "ColumnarRelation":
        """Rows where ``mask`` is True (length must equal len(self))."""
        self._flush()
        cols = [c[mask] for c in self._columns]
        nrows = len(cols[0]) if cols else int(np.count_nonzero(mask))
        return type(self).from_codes(
            self.variables, cols, nrows, self._dict)

    def semijoin(self, other: Any) -> "ColumnarRelation":
        """Rows of self matching some row of other on the shared
        variables; same degenerate-case semantics as VarRelation."""
        obs.count("kernel.semijoin")
        self._flush()
        other = self._coerce(other)
        shared = [v for v in self.variables if other.has_variable(v)]
        if not shared:
            if len(other):
                return self.copy()
            return type(self)(self.variables, dictionary=self._dict)
        return self.select_mask(matching_rows(
            [self._columns[self._positions[v]] for v in shared], self._nrows,
            [other._columns[other._positions[v]] for v in shared],
            other._nrows))

    def join(self, other: Any) -> "ColumnarRelation":
        """Natural join via sort-merge on joint group ids."""
        obs.count("kernel.join")
        self._flush()
        other = self._coerce(other)
        shared = [v for v in self.variables if other.has_variable(v)]
        extra = [v for v in other.variables if v not in self._positions]
        out_vars = self.variables + tuple(extra)
        n, m = self._nrows, other._nrows
        self_keys = [self._columns[self._positions[v]] for v in shared]
        other_keys = [other._columns[other._positions[v]] for v in shared]
        joint = [np.concatenate([a, b])
                 for a, b in zip(self_keys, other_keys)]
        ids, _card = group_ids(joint, n + m)
        self_ids, other_ids = ids[:n], ids[n:]
        order = np.argsort(other_ids, kind="stable")
        sorted_ids = other_ids[order]
        lo = np.searchsorted(sorted_ids, self_ids, side="left")
        hi = np.searchsorted(sorted_ids, self_ids, side="right")
        counts = hi - lo
        total = int(counts.sum())
        self_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
        run_starts = np.cumsum(counts) - counts  # exclusive prefix sum
        within = np.arange(total, dtype=np.int64) - np.repeat(run_starts,
                                                              counts)
        other_idx = order[np.repeat(lo, counts) + within]
        cols = [c[self_idx] for c in self._columns]
        cols += [other._columns[other._positions[v]][other_idx]
                 for v in extra]
        # distinct inputs joined on equal keys stay distinct: no dedupe
        return type(self).from_codes(
            out_vars, cols, total, self._dict)

    def rename(self, mapping: Dict[Variable, Variable]) -> "ColumnarRelation":
        """Rename columns along ``mapping``; rows whose merged columns
        conflict are dropped (VarRelation semantics)."""
        obs.count("kernel.rename")
        self._flush()
        new_vars: List[Variable] = []
        source_pos: Dict[Variable, int] = {}
        mask = np.ones(self._nrows, dtype=bool)
        for i, v in enumerate(self.variables):
            nv = mapping.get(v, v)
            if nv in source_pos:
                mask &= self._columns[i] == self._columns[source_pos[nv]]
            else:
                source_pos[nv] = i
                new_vars.append(nv)
        cols = [self._columns[source_pos[nv]][mask] for nv in new_vars]
        nrows = int(mask.sum())
        return type(self).from_codes(
            tuple(new_vars), cols, nrows, self._dict, dedupe=True)


def _dedupe_columns(columns: List[np.ndarray], nrows: int
                    ) -> Tuple[List[np.ndarray], int]:
    """Drop duplicate rows, keeping first occurrences in order."""
    if not columns:
        return columns, min(nrows, 1)
    if nrows <= 1:
        return columns, nrows
    ids, card = group_ids(columns, nrows)
    first = first_occurrences(ids, card)
    if len(first) == nrows:
        return columns, nrows
    return [c[first] for c in columns], len(first)


def _encode_rows(rows: Iterable[Tup], width: int,
                 dictionary: ValueDictionary) -> List[np.ndarray]:
    """Encode equal-length Python tuples column-wise.

    The rows are flattened into one list and converted to one 1-d array.
    Integer-only data (an integer dtype) is encoded column by column
    through its distinct values; anything else (mixed types, strings,
    floats, ints beyond 64 bits) is encoded from strided slices of the
    flat list, so numpy's dtype coercion never changes equality
    semantics.
    """
    if width == 0:
        return []
    flat = list(chain.from_iterable(rows))
    try:
        arr = np.asarray(flat)
    except (ValueError, TypeError):  # values numpy cannot stack
        arr = None
    if arr is not None and arr.ndim == 1 and arr.dtype.kind in _INT_KINDS:
        arr = arr.reshape(-1, width)
        return [dictionary.encode_column(arr[:, j]) for j in range(width)]
    return [dictionary.encode_values(flat[j::width]) for j in range(width)]


# ------------------------------------------------------- atom materialisation


def encoded_relation_columns(rel, dictionary: ValueDictionary
                             ) -> Tuple[List[np.ndarray], int]:
    """Dictionary-encoded columns of a stored :class:`Relation`.

    Memoised on the relation's current version under ``dictionary``
    (see :mod:`repro.engine.symbols`): every atom over the relation, in
    every run, reads the same encoded columns, and a write re-encodes
    the whole relation on the next call.
    """
    cols, nrows, _probes = _encoded(rel, dictionary)
    return cols, nrows


def _encoded(rel, dictionary: ValueDictionary):
    """``rel``'s encoded columns, row count and base probe cache."""
    from repro.engine.symbols import shared

    def build():
        rows = rel.tuples()
        return _encode_rows(rows, rel.arity, dictionary), len(rows), {}

    return shared(rel, dictionary, build)


def _masked_atom_columns(atom, cols, nrows,
                         dictionary: ValueDictionary
                         ) -> Tuple[List[np.ndarray], int]:
    """Resolve an atom's constants and repeated variables into selected,
    projected columns (the non-base layout of
    :func:`materialise_atom_columnar`)."""
    variables = atom.variables()
    mask: Optional[np.ndarray] = None
    first_pos: Dict[Variable, int] = {}
    for pos, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            code = dictionary.code_of(term.value)
            if code is None:
                cond = np.zeros(nrows, dtype=bool)
            else:
                cond = cols[pos] == code
        elif term in first_pos:
            cond = cols[pos] == cols[first_pos[term]]
        else:
            first_pos[term] = pos
            continue
        mask = cond if mask is None else mask & cond
    out_cols = [cols[first_pos[v]] for v in variables]
    if mask is not None:
        out_cols = [c[mask] for c in out_cols]
        nrows = int(mask.sum())
    return out_cols, nrows


def materialise_atom_columnar(db, atom,
                              dictionary: Optional[ValueDictionary] = None
                              ) -> ColumnarRelation:
    """Vectorized counterpart of :func:`repro.eval.join.atom_to_varrelation`:
    constants and repeated variables become boolean column masks.

    The result rides the stored relation's memo: all-distinct-variable
    atoms share its base probe cache (one sorted build per (positions,
    version) across every atom of the symbol), and masked atoms share
    one column set + probe cache per constant/dup-variable signature —
    ``R(x, x)`` and ``R(u, u)`` are materialised once.  The selected and
    projected columns depend only on the signature, never on variable
    names, which is what makes the share sound.
    """
    from repro.engine.symbols import atom_signature, shared

    # None check, not truthiness: an empty ValueDictionary is falsy but
    # still the dictionary the caller asked to encode into
    dictionary = dictionary if dictionary is not None else default_dictionary()
    rel = db.relation_for(atom)
    obs.count("kernel.materialise_atom")
    cols, nrows, probes = _encoded(rel, dictionary)
    obs.gauge("dictionary.size", len(dictionary))
    sig = atom_signature(atom)
    if sig is not None:
        base = cols, nrows
        # base rows are distinct, so the selected/projected rows are too
        cols, nrows, probes = shared(
            rel, (dictionary, sig),
            lambda: (*_masked_atom_columns(atom, *base, dictionary), {}),
            counter="symbol_workspace_variant")
    # no copy: every atom with this layout aliases the memo's arrays
    out = ColumnarRelation.from_codes(atom.variables(), cols, nrows,
                                      dictionary)
    out._probecache = probes
    return out


# --------------------------------------------------------- counting kernel


#: No sum of an unweighted count exceeds the product of its relations'
#: row counts (a maintained one's, twice it), so below this bound int64
#: sums are exact; a count whose product reaches it runs in Python ints.
COUNT_BOUND = 2 ** 62


class _DPGrouping:
    """A relation's rows grouped by one key, memoised for the counting DP.

    ``ids[i]`` is row ``i``'s group, in ``[0, card)``; ``first`` holds
    each group's first row, in row order, and ``first_ids`` those rows'
    groups, so the DP's message ``j`` (the key of row ``first[j]``) sums
    group ``first_ids[j]``.  :attr:`sizes` counts each group's rows: an
    unweighted leaf's message, read warm instead of re-summed.
    """

    __slots__ = ("ids", "card", "first", "first_ids", "_sizes")

    def __init__(self, ids: np.ndarray, card: int, first: np.ndarray):
        self.ids = ids
        self.card = card
        self.first = first
        self.first_ids = ids[first]
        self._sizes: Optional[np.ndarray] = None

    @property
    def sizes(self) -> np.ndarray:
        """Each group's row count, padded with one trailing 0 (the slot
        of a key no row holds), built on first use and read-only: every
        count over these columns shares it."""
        if self._sizes is None:
            sizes = np.bincount(self.ids, minlength=self.card + 1)
            sizes.flags.writeable = False
            self._sizes = sizes
        return self._sizes


def _dp_grouping(rel: ColumnarRelation,
                 variables: Sequence[Variable]) -> _DPGrouping:
    """``rel``'s rows grouped by their values over ``variables``,
    memoised on the relation by column positions (as
    :meth:`ColumnarRelation.batch_probe` is)."""
    def build() -> _DPGrouping:
        ids, card = group_ids([rel.column(v) for v in variables], len(rel))
        return _DPGrouping(ids, card, first_occurrences(ids, card))

    positions = tuple(rel.position(v) for v in variables)
    return rel.cached_probe(("dp_group", positions), build)


def _dp_gather(parent: ColumnarRelation, child: ColumnarRelation,
               edge: int, variables: Sequence[Variable],
               child_groups: _DPGrouping) -> np.ndarray:
    """For each row of ``parent``, the group of ``child_groups`` (the
    child's rows grouped by ``variables``) holding its key over
    ``variables``, or ``child_groups.card`` when no child row does.

    Memoised on the parent by ``edge`` (the child's place among the
    parent's children: two children may join the parent on the same
    columns) and both ends' column positions, and held against
    ``child_groups``: the child's memo entry, which changes whenever the
    child's columns do."""
    def build() -> np.ndarray:
        first = child_groups.first
        g = len(first)
        joint = [np.concatenate([child.column(v)[first], parent.column(v)])
                 for v in variables]
        ids, card = group_ids(joint, g + len(parent))
        slot = np.full(card, child_groups.card, dtype=np.int64)
        slot[ids[:g]] = child_groups.first_ids
        return slot[ids[g:]]

    key = ("dp_gather", edge, tuple(parent.position(v) for v in variables),
           tuple(child.position(v) for v in variables))
    return parent.cached_probe(key, build, against=child_groups)


def message_tree(relations: Sequence[Any]
                 ) -> Tuple[JoinTree, Dict[int, Tuple[Variable, ...]]]:
    """A join tree of ``relations`` (node ``i`` holds ``relations[i]``;
    memoised on the hypergraph) and each node's message key for
    :func:`acyclic_join_messages`: the node's variables that its tree
    parent also has, in the node's column order (none at the root)."""
    tree = cached_join_tree(Hypergraph(
        {v for r in relations for v in r.variables},
        [frozenset(r.variables) for r in relations]))
    share_vars = {
        node: () if parent is None else tuple(
            v for v in relations[node].variables
            if relations[parent].has_variable(v))
        for node, parent in tree.parent.items()}
    return tree, share_vars


def count_acyclic_join_columnar(relations: Sequence[ColumnarRelation],
                                tree,
                                share_vars: Dict[int, Tuple[Variable, ...]],
                                row_weights: Optional[
                                    Dict[int, np.ndarray]] = None
                                ) -> Any:
    """Vectorized bottom-up counting messages (Theorem 4.21).

    Mirrors the tuple-backed message passing of
    :func:`repro.counting.acq_count.count_full_acyclic_join` through
    :func:`acyclic_join_messages`, and reads the root's sum.

    Unweighted (``row_weights=None``) sums run in int64, exact while
    the product of the relations' row counts is below
    :data:`COUNT_BOUND` (the caller checks it).  With float64
    ``row_weights`` (each row's product of its charged variables'
    weights) the messages become float64: IEEE semantics, see
    :meth:`repro.counting.weighted.WeightFunction.code_table`.
    """
    for _node, _values, _groups, root in acyclic_join_messages(
            relations, tree, share_vars, row_weights):
        pass                                    # the root comes last
    # the root's one key is group 0, which sums to 0 when it has no rows
    return float(root[0]) if row_weights is not None else int(root[0])


def acyclic_join_messages(relations: Sequence[ColumnarRelation], tree,
                          share_vars: Dict[int, Tuple[Variable, ...]],
                          row_weights: Optional[Dict[int, np.ndarray]]
                          = None
                          ) -> Iterator[Tuple[int, np.ndarray,
                                              _DPGrouping, np.ndarray]]:
    """The counting DP's messages, one node at a time, children first.

    Yields ``(node, values, groups, padded)``: ``values[i]`` is row
    ``i``'s weight (int64 1, or ``row_weights[node][i]``) times its
    children's message factors, ``groups`` groups the rows by their key
    over ``share_vars[node]``, and ``padded[g]`` is the sum of group
    ``g``'s values (and ``padded[groups.card]`` is 0).  So the message
    maps the key of row ``groups.first[j]`` to
    ``padded[groups.first_ids[j]]``, in first-occurrence order (the
    root's one key ``()`` is group 0).  The sums take ``row_weights``'
    dtype: object arrays of Python ints stay exact past int64, which is
    how :mod:`repro.enumeration.random_access` indexes a join at or past
    :data:`COUNT_BOUND`.
    ``groups`` and an unweighted leaf's ``values`` and ``padded`` belong
    to the memo: copy them before writing.

    The grouping is the per-database part, and it is memoised on the
    relations (:func:`_dp_grouping`, :func:`_dp_gather`, through
    :meth:`ColumnarRelation.cached_probe`), so copies of a relation
    share it: each node's group ids over its parent key, its group
    sizes, and each edge's gather from parent row to child group.  A
    cold pass builds them without a sort, in O(n + card) per node and
    edge.  An unweighted node with no children (every leaf, and the
    root of a one-node tree) has all-one values, a read-only zero-stride
    view, and its message is its memoised group sizes, so a warm pass
    over unchanged columns does no work at it.  Every other node runs
    one gather and product per child and one ``np.add.at`` into its
    message (a plain sum for an unweighted node with one key, such as
    the root).
    """
    messages: Dict[int, Tuple[_DPGrouping, np.ndarray]] = {}
    for node in tree.bottom_up():
        rel = relations[node]
        rel._flush()
        values = None if row_weights is None else row_weights[node]
        for edge, child in enumerate(tree.children[node]):
            groups, padded = messages.pop(child)
            factor = padded[_dp_gather(rel, relations[child], edge,
                                       share_vars[child], groups)]
            values = factor if values is None else values * factor
        groups = _dp_grouping(rel, share_vars[node])
        if values is None:      # unweighted, no children
            values = np.broadcast_to(np.int64(1), len(rel))
            padded = groups.sizes
        else:
            # one slot past the groups stays 0: the factor of a parent
            # row no child row matches
            padded = np.zeros(groups.card + 1, dtype=values.dtype)
            if share_vars[node] or values.dtype != np.int64:
                np.add.at(padded, groups.ids, values)
            else:   # one group: an int64 sum is exact in any order
                padded[0] = values.sum()
        messages[node] = (groups, padded)
        yield node, values, groups, padded
