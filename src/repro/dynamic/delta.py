"""Delta propagation through join-tree plans.

Both structures here store the atom rows of one join tree and catch up
with per-relation ``('+' | '-', tuple)`` ops — the
:class:`~repro.data.relation.DeltaLog` entries a stale plan-cache
fingerprint implies, or single updates of a dynamic view — in time
proportional to the delta's footprint rather than to ``||D||``.

* :class:`SupportCounters` owns the base-op pass and the bottom-up
  semijoin wave.  Per node it keeps the rows, grouped by the key they
  share with the parent and by each child's key; an ``up`` mark on every
  row that has an up row under each of its child keys; and ``up_count``,
  the number of up rows per parent key.  A row is rechecked only when it
  is new or one of its child keys' counts crossed zero.  On the tree of
  :func:`~repro.hypergraph.freeconnex.free_connex_join_tree` the atoms
  below the virtual free edge are roots keyed on their free variables,
  and each root's ``up_count`` is the projection P_c (with
  multiplicities) that :class:`~repro.dynamic.view.DynamicFreeConnexView`
  joins into answers.
* :class:`DeltaCounter` maintains the Theorem 4.21 counting DP on
  dictionary codes: per node the rows' code columns with an alive mask
  and each row's contribution (the product of its children's message
  factors), and the node's message (per-key contribution sums) as an
  array indexed by the key's slot, dense and local to the state, so
  its memory follows the state's rows and not the process-wide
  dictionary.  It is seeded from the cold columnar kernel's messages,
  and a delta recomputes just the contributions under the keys whose
  sums moved, one level at a time.  It is the one plan the plan cache
  refreshes: an unweighted count's slot holds the cold total until the
  database is written, and for a quantifier-free query the first count
  after a write seeds one state in its place, which every engine reads
  (:meth:`DeltaCounter.caught_up`).  Every other plan rebuilds cold
  after a write.

``DeltaCounter``'s plan-cache refresher mutates in place; an
unexpected mid-refresh failure marks the state broken so the cache falls
back to a cold build instead of serving a corrupt plan.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.data.database import Database
from repro.engine.columnar import (
    COUNT_BOUND,
    ColumnarRelation,
    _masked_atom_columns,
    _unique_inverse,
    acyclic_join_messages,
    default_dictionary,
    encoded_relation_columns,
    matching_rows,
)
from repro.hypergraph.jointree import JoinTree, cached_join_tree
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Constant, Variable

Tup = Tuple[Any, ...]
Ops = List[Tuple[str, Tup]]


class _AtomMap:
    """Base-tuple -> atom-row mapping (constants and repeated variables
    resolved).  On tuples it accepts, the mapping is injective: every
    position is either a fixed constant or equal to the first occurrence
    of its variable, so the row determines the tuple."""

    __slots__ = ("consts", "dups", "out")

    def __init__(self, atom):
        first_pos: Dict[Variable, int] = {}
        self.consts: List[Tuple[int, Any]] = []
        self.dups: List[Tuple[int, int]] = []
        for pos, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                self.consts.append((pos, term.value))
            elif term in first_pos:
                self.dups.append((first_pos[term], pos))
            else:
                first_pos[term] = pos
        self.out = [first_pos[v] for v in atom.variables()]

    def row_of(self, t: Tup) -> Optional[Tup]:
        for pos, value in self.consts:
            if t[pos] != value:
                return None
        for a, b in self.dups:
            if t[a] != t[b]:
                return None
        return tuple(t[p] for p in self.out)


class _Node:
    """One atom of the support counters' join tree.

    ``share`` is the node's variables that occur in its tree parent's
    edge; a parent that is no atom (the virtual free edge of a
    free-connex tree) makes the node a root."""

    __slots__ = ("index", "name", "variables", "positions", "atom_map",
                 "parent", "children", "share", "share_pos",
                 "child_key_pos", "rows", "pgroup", "cgroup", "up",
                 "up_count")

    def __init__(self, index: int, atom):
        self.index = index
        self.name = atom.relation
        self.variables: Tuple[Variable, ...] = atom.variables()
        self.positions = {v: i for i, v in enumerate(self.variables)}
        self.atom_map = _AtomMap(atom)
        self.parent: Optional[int] = None
        self.children: List[int] = []
        self.share: Tuple[Variable, ...] = ()
        self.share_pos: List[int] = []      # positions of `share` in own row
        self.child_key_pos: List[List[int]] = []  # per child slot
        self.rows: Dict[Tup, None] = {}
        # own rows grouped by parent-shared key / by child-shared key
        self.pgroup: Dict[Tup, Set[Tup]] = {}
        self.cgroup: List[Dict[Tup, Set[Tup]]] = []
        self.up: Set[Tup] = set()
        self.up_count: Dict[Tup, int] = {}

    def pkey(self, row: Tup) -> Tup:
        return tuple(row[p] for p in self.share_pos)

    def ckey(self, slot: int, row: Tup) -> Tup:
        return tuple(row[p] for p in self.child_key_pos[slot])

    def group_add(self, row: Tup) -> None:
        self.pgroup.setdefault(self.pkey(row), set()).add(row)
        for slot in range(len(self.children)):
            self.cgroup[slot].setdefault(self.ckey(slot, row), set()).add(row)

    def group_remove(self, row: Tup) -> None:
        for group, key in [(self.pgroup, self.pkey(row))] + [
                (self.cgroup[s], self.ckey(s, row))
                for s in range(len(self.children))]:
            bucket = group.get(key)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del group[key]


def _bump(counter: Dict[Tup, int], key: Tup, delta: int) -> bool:
    """Adjust a support counter; True when it crossed zero."""
    old = counter.get(key, 0)
    new = old + delta
    if new > 0:
        counter[key] = new
    else:
        counter.pop(key, None)
    return (old > 0) != (new > 0)


class SupportCounters:
    """Base rows and the bottom-up semijoin wave of one join tree.

    A row is *up* when every child has an up row under the row's key for
    that child, so the up rows of a node are its subtree's semijoin
    reduct.  ``_apply`` runs one batch of ops and returns, per node, the
    parent keys whose ``up_count`` crossed zero (in either direction).
    """

    def __init__(self, cq: ConjunctiveQuery, tree: JoinTree):
        self.cq = cq
        self.nodes = [_Node(i, atom) for i, atom in enumerate(cq.atoms)]
        for i, node in enumerate(self.nodes):
            node.children = list(tree.children[i])
            node.cgroup = [{} for _ in node.children]
            parent = tree.parent[i]
            if parent is None:
                continue
            edge = tree.edge_of(parent)
            node.share = tuple(v for v in node.variables if v in edge)
            node.share_pos = [node.positions[v] for v in node.share]
            if parent < len(self.nodes):
                node.parent = parent
        for node in self.nodes:
            node.child_key_pos = [
                [node.positions[v] for v in self.nodes[c].share]
                for c in node.children]
        self._by_relation: Dict[str, List[int]] = {}
        for node in self.nodes:
            self._by_relation.setdefault(node.name, []).append(node.index)
        self._bottom_up = [i for i in tree.bottom_up()
                           if i < len(self.nodes)]

    def _seed(self, db: Database, span: str) -> Dict[int, Set[Tup]]:
        """Load the query's relations of ``db`` as one insert batch."""
        rels = {atom.relation: db.relation_for(atom) for atom in self.cq.atoms}
        with obs.span(span, nodes=len(self.nodes)):
            return self._apply({name: [("+", t) for t in rel]
                                for name, rel in rels.items()})

    def _apply(self, deltas: Dict[str, Ops]) -> Dict[int, Set[Tup]]:
        recheck: Dict[int, Set[Tup]] = {}
        crossed: Dict[int, Set[Tup]] = {}
        self._base_ops(deltas, recheck, crossed)
        self._up_wave(recheck, crossed)
        return crossed

    def _base_ops(self, deltas: Dict[str, Ops],
                  recheck: Dict[int, Set[Tup]],
                  crossed: Dict[int, Set[Tup]]) -> None:
        """Inserts queue an up recheck; deletes drop their up support
        now."""
        nodes = self.nodes
        for name, ops in deltas.items():
            for idx in self._by_relation.get(name, ()):
                node = nodes[idx]
                for op, t in ops:
                    row = node.atom_map.row_of(t)
                    if row is None:
                        continue
                    if op == "+":
                        if row in node.rows:
                            continue
                        node.rows[row] = None
                        node.group_add(row)
                        recheck.setdefault(idx, set()).add(row)
                    elif row in node.rows:
                        if row in node.up:
                            node.up.discard(row)
                            key = node.pkey(row)
                            if _bump(node.up_count, key, -1):
                                crossed.setdefault(idx, set()).add(key)
                        del node.rows[row]
                        node.group_remove(row)

    def _up_wave(self, recheck: Dict[int, Set[Tup]],
                 crossed: Dict[int, Set[Tup]]) -> None:
        """Recheck the up marks children first, so a node sees its
        children's final counts."""
        nodes = self.nodes
        for idx in self._bottom_up:
            node = nodes[idx]
            pending = recheck.get(idx, set())
            for slot, child_idx in enumerate(node.children):
                for key in crossed.get(child_idx, ()):
                    pending |= node.cgroup[slot].get(key, set())
            for row in pending:
                if row not in node.rows:
                    continue
                new_up = True
                for slot, child_idx in enumerate(node.children):
                    if node.ckey(slot, row) not in nodes[child_idx].up_count:
                        new_up = False
                        break
                if new_up == (row in node.up):
                    continue
                if new_up:
                    node.up.add(row)
                else:
                    node.up.discard(row)
                key = node.pkey(row)
                if _bump(node.up_count, key, 1 if new_up else -1):
                    crossed.setdefault(idx, set()).add(key)


# ------------------------------------------------------------------ counter

#: Two codes (or slots) below this pack into one int64 key.
_PACK = 2 ** 31

#: The least size at which an index's unsorted tail merges into its
#: sorted run, and at which a node's dead rows are compacted away.
TAIL_MIN = 32

_EMPTY = np.empty(0, dtype=np.int64)


def _grown(arr: np.ndarray, size: int) -> np.ndarray:
    """``arr`` with room for ``size`` entries (doubling; new ones zero)."""
    if size <= len(arr):
        return arr
    out = np.zeros(max(size, 2 * len(arr)), dtype=arr.dtype)
    out[:len(arr)] = arr
    return out


def _ranges(values: np.ndarray, lo: np.ndarray, hi: np.ndarray
            ) -> np.ndarray:
    """``values[lo[0]:hi[0]]``, ``values[lo[1]:hi[1]]``, ... concatenated."""
    counts = hi - lo
    total = int(counts.sum())
    if not total:
        return values[:0]
    starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return values[starts + np.arange(total)]


def _row_key(cols: Sequence[np.ndarray], rows) -> np.ndarray:
    """The first one or two code columns of ``rows``, packed."""
    key = cols[0][rows]
    if len(cols) > 1:
        key = key * _PACK + cols[1][rows]
    return key


class _KeyIndex:
    """Row ids sorted by an int64 key, plus an unsorted tail that
    absorbs the rows added since: a lookup sorts the tail in place, and
    the tail merges into the sorted run once it holds more than
    max(TAIL_MIN, a 16th of the run).  Rows are never removed; callers
    drop the dead ones.  A :class:`_SlotMap` level stores each distinct
    key's slot as its row."""

    __slots__ = ("keys", "rows", "tail_keys", "tail_rows", "ntail",
                 "tail_sorted")

    def __init__(self, keys: np.ndarray):
        """The index of rows ``0 .. len(keys) - 1`` by ``keys``."""
        self.rows = np.argsort(keys)
        self.keys = keys[self.rows]
        self.tail_keys, self.tail_rows, self.ntail = _EMPTY, _EMPTY, 0
        self.tail_sorted = True

    def __len__(self) -> int:
        return len(self.keys) + self.ntail

    def add(self, keys: np.ndarray, rows: np.ndarray) -> None:
        n = self.ntail + len(keys)
        self.tail_keys = _grown(self.tail_keys, n)
        self.tail_rows = _grown(self.tail_rows, n)
        self.tail_keys[self.ntail:n] = keys
        self.tail_rows[self.ntail:n] = rows
        self.ntail, self.tail_sorted = n, False
        if n > max(TAIL_MIN, len(self.keys) >> 4):
            keys, rows = self._tail()
            at = np.searchsorted(self.keys, keys)
            self.keys = np.insert(self.keys, at, keys)
            self.rows = np.insert(self.rows, at, rows)
            self.ntail = 0

    def _tail(self) -> Tuple[np.ndarray, np.ndarray]:
        keys, rows = self.tail_keys[:self.ntail], self.tail_rows[:self.ntail]
        if not self.tail_sorted:
            # a sorted run plus the rows added since: timsort merges them
            order = np.argsort(keys, kind="stable")
            keys[:], rows[:] = keys[order], rows[order]
            self.tail_sorted = True
        return keys, rows

    def _runs(self):
        return (self.keys, self.rows), self._tail()

    def rows_with(self, keys: np.ndarray) -> np.ndarray:
        """The rows whose key is one of ``keys`` (distinct)."""
        return np.concatenate([
            _ranges(rows, np.searchsorted(run, keys, "left"),
                    np.searchsorted(run, keys, "right"))
            for run, rows in self._runs()])

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The row of each of ``keys``, or -1 where the key is absent
        (for an index whose keys are distinct)."""
        out = np.full(len(keys), -1, dtype=np.int64)
        for run, rows in self._runs():
            if len(run):
                at = np.minimum(np.searchsorted(run, keys), len(run) - 1)
                hit = run[at] == keys
                out[hit] = rows[at[hit]]
        return out


class _SlotMap:
    """Stable dense slots for the keys of one tree edge, local to one
    state, so its messages grow with the keys its rows hold and not
    with the process-wide dictionary.

    The first variable's code, and then each further variable packed
    with the slot so far as (slot, code) into one int64, is looked up in
    one :class:`_KeyIndex` per variable; an unseen key takes the next
    slot.
    """

    __slots__ = ("levels",)

    def __init__(self, width: int):
        self.levels = [_KeyIndex(_EMPTY) for _ in range(width)]

    def __len__(self) -> int:
        return len(self.levels[-1])

    def slots(self, cols: Sequence[np.ndarray]) -> np.ndarray:
        acc = self._level(self.levels[0], cols[0])
        for level, col in zip(self.levels[1:], cols[1:]):
            acc = self._level(level, acc * _PACK + col)
        return acc

    @staticmethod
    def _level(level: _KeyIndex, keys: np.ndarray) -> np.ndarray:
        out = level.find(keys)
        unseen = out < 0
        if unseen.any():
            new, inverse = _unique_inverse(keys[unseen])
            fresh = np.arange(len(level), len(level) + len(new))
            out[unseen] = fresh[inverse]
            level.add(new, fresh)
        return out


class _CountNode:
    """One atom's rows and its share of the counting DP.

    Rows ``0 .. n-1`` are stored as code columns (``cols``, in the
    atom's variable order) with an ``alive`` mask and a ``contrib``
    each; a deleted row stays dead until the node is compacted.  A key
    on a tree edge is ``()`` (slot 0) or a slot of the edge's
    :class:`_SlotMap`, stored per row in ``slots``.  ``msg[k]`` is the
    contribution sum of the live rows whose parent key is ``k``.  The
    key indexes, built whenever the rows are (re)loaded, are
    ``indexes[0]`` by the row's first two codes (to find deleted rows)
    and ``indexes[1 + s]`` by the key of child slot s (to find the rows
    under a child key whose sum moved).
    """

    __slots__ = ("index", "atom", "name", "variables", "share", "keypos",
                 "slotmaps", "n", "live", "cols", "alive", "contrib",
                 "slots", "msg", "indexes")

    def __init__(self, index: int, atom):
        self.index = index
        self.atom = atom
        self.name = atom.relation
        self.variables: Tuple[Variable, ...] = atom.variables()
        self.share: Tuple[Variable, ...] = ()
        # key positions per edge: 0 for the parent, 1 + s for child slot s
        self.keypos: List[Tuple[int, ...]] = []
        self.slotmaps: List[Optional[_SlotMap]] = []
        self.n = 0
        self.live = 0
        self.cols = [_EMPTY for _ in self.variables]
        self.alive = np.zeros(0, dtype=bool)
        self.contrib = _EMPTY
        self.slots: List[np.ndarray] = []
        self.msg = np.zeros(1, dtype=np.int64)
        self.indexes: List[_KeyIndex] = []

    def key(self, edge: int, rows) -> np.ndarray:
        """The keys of ``rows`` on ``edge`` (0 = parent, 1 + s = child
        slot s)."""
        if self.slotmaps[edge] is None:
            return np.zeros(len(rows), dtype=np.int64)
        return self.slots[edge][rows]

    def load(self, cols: Sequence[np.ndarray], n: int,
             slots: Optional[Sequence[Optional[np.ndarray]]] = None
             ) -> np.ndarray:
        """Append ``n`` live rows, with their keys' slots per edge when
        known (else they are looked up); returns their ids."""
        start, end = self.n, self.n + n
        if end > len(self.alive):
            cap = max(end + (end >> 3), 2 * len(self.alive), 16)
            self.cols = [_grown(c, cap) for c in self.cols]
            self.alive = _grown(self.alive, cap)
            self.contrib = _grown(self.contrib, cap)
            self.slots = [s if m is None else _grown(s, cap)
                          for s, m in zip(self.slots, self.slotmaps)]
        for mine, new in zip(self.cols, cols):
            mine[start:end] = new[:n]
        self.alive[start:end] = True
        self.contrib[start:end] = 0
        self.n, self.live = end, self.live + n
        rows = np.arange(start, end)
        for edge, slotmap in enumerate(self.slotmaps):
            if slotmap is not None:
                self.slots[edge][start:end] = slotmap.slots(
                    [self.cols[p][start:end] for p in self.keypos[edge]]
                ) if slots is None else slots[edge]
        for i, index in enumerate(self.indexes):
            index.add(self.index_key(i, rows), rows)
        return rows

    def reload(self, cols: Sequence[np.ndarray], n: int,
               slots: Optional[Sequence[Optional[np.ndarray]]] = None
               ) -> None:
        """Replace every row by the ``n`` rows of ``cols``, live, in
        arrays sized for them, and build the key indexes over them."""
        self.n = self.live = 0
        self.cols = [_EMPTY for _ in self.variables]
        self.alive = np.zeros(0, dtype=bool)
        self.contrib = _EMPTY
        self.slots = [_EMPTY] * len(self.keypos)
        self.indexes = []
        rows = self.load(cols, n, slots)
        self.indexes = [_KeyIndex(self.index_key(i, rows))
                        for i in range(len(self.keypos))]

    def index_key(self, i: int, rows) -> np.ndarray:
        """The key of ``rows`` in index ``i``: the row key for 0, the
        key of child slot s for 1 + s."""
        return _row_key(self.cols, rows) if i == 0 else self.key(i, rows)

    def kill(self, cols: Sequence[np.ndarray], n: int
             ) -> Tuple[np.ndarray, np.ndarray]:
        """Mark the live rows equal to the ``n`` rows of ``cols`` dead;
        returns their parent keys and negated contributions."""
        rows = self.indexes[0].rows_with(np.unique(_row_key(cols, slice(n))))
        rows = rows[self.alive[rows]]
        if len(self.cols) > 2:      # the key covers two columns only
            rows = rows[matching_rows([c[rows] for c in self.cols],
                                      len(rows), cols, n)]
        gone = self.key(0, rows), -self.contrib[rows]
        self.alive[rows] = False
        self.contrib[rows] = 0
        self.live -= len(rows)
        return gone


class DeltaCounter:
    """An incrementally maintained Theorem 4.21 counting DP.

    Engine-independent (rows are encoded in the process-wide value
    dictionary whatever the caller's backend) and exact: :meth:`build`
    and :meth:`refreshed` decline a state whose int64 sums could
    overflow (:data:`repro.engine.columnar.COUNT_BOUND`: every message,
    contribution and ``np.add.at`` partial sum of a maintained count is
    at most twice the product of its atoms' row counts), so the
    maintained total is the int the cold count computes.  Unweighted
    only — float message sums are order-sensitive, so weighted counting
    stays cold.
    """

    _broken = False

    def __init__(self, cq: ConjunctiveQuery, tree: JoinTree):
        self.tree = tree
        self.dictionary = default_dictionary()
        self.nodes = [_CountNode(i, atom) for i, atom in enumerate(cq.atoms)]
        self._order = tree.bottom_up()
        self._arity = {atom.relation: len(atom.terms) for atom in cq.atoms}
        for i, node in enumerate(self.nodes):
            parent = tree.parent[i]
            if parent is not None:
                edge = tree.edge_of(parent)
                node.share = tuple(v for v in node.variables if v in edge)
        self._new_slotmaps()
        for node in self.nodes:
            children = [self.nodes[c] for c in tree.children[node.index]]
            positions = {v: p for p, v in enumerate(node.variables)}
            node.keypos = [tuple(positions[v] for v in e.share)
                           for e in [node] + children]
            node.reload(node.cols, 0)

    def _new_slotmaps(self) -> None:
        """Give every edge an empty slot map, shared by its two ends:
        the child's parent key and the parent's key for that child."""
        for node in self.nodes:
            node.slotmaps = [_SlotMap(len(node.share)) if node.share
                             else None]
        for node in self.nodes:
            node.slotmaps += [self.nodes[c].slotmaps[0]
                              for c in self.tree.children[node.index]]

    @staticmethod
    def supports(cq: ConjunctiveQuery) -> bool:
        """Quantifier-free, comparison-free, no zero-ary atoms (those
        take the truth-value short-circuits of the cold kernel)."""
        if not cq.is_quantifier_free() or cq.has_comparisons():
            return False
        return all(len(atom.variables()) > 0 for atom in cq.atoms)

    @classmethod
    def build(cls, cq: ConjunctiveQuery, db: Database
              ) -> Optional["DeltaCounter"]:
        """The state seeded from ``db``, or None when its int64 bound
        cannot be guaranteed (the count then runs cold)."""
        state = cls(cq, cached_join_tree(cq.hypergraph()))
        rels = {atom.relation: db.relation_for(atom) for atom in cq.atoms}
        # the bound needs the row counts only: check it before encoding
        if not state._fits({name: len(rel) for name, rel in rels.items()}):
            return None
        with obs.span("delta.counter_build", nodes=len(state.nodes)):
            batch = {}
            for name, rel in rels.items():
                cols, n = encoded_relation_columns(rel, state.dictionary)
                batch[name] = (cols, n, [_EMPTY] * len(cols), 0)
            if not state._fits({}):     # the encoding grew the dictionary
                return None
            state._apply(batch)
        return state

    def _fits(self, inserts: Dict[str, int]) -> bool:
        """Do the sums stay below :data:`COUNT_BOUND` (and the codes
        below ``_PACK``) with ``inserts`` more rows per relation?"""
        bound = math.prod(max(node.live + inserts.get(node.name, 0), 1)
                          for node in self.nodes)
        return bound < COUNT_BOUND and len(self.dictionary) < _PACK

    def _net(self, name: str, ops: Ops):
        """One relation's ops netted per row, then encoded once.  A
        row's effective ops alternate, so each op cancels the one before
        it, and the ops left are the net inserts and deletes."""
        net: Dict[Tup, str] = {}
        for op, t in ops:
            if net.pop(t, None) is None:
                net[t] = op
        ins = [t for t, op in net.items() if op == "+"]
        dels = [t for t, op in net.items() if op == "-"]
        width = self._arity[name]
        codes = self.dictionary.encode_values(
            list(chain.from_iterable(ins + dels))).reshape(-1, width)
        ni = len(ins)
        return ([codes[:ni, j] for j in range(width)], ni,
                [codes[ni:, j] for j in range(width)], len(dels))

    def _apply(self, batch) -> None:
        """Fold one batch, ``{relation: (insert columns, count, delete
        columns, count)}`` of netted encoded rows, into the DP."""
        ins: Dict[int, Tuple[List[np.ndarray], int]] = {}
        dels: Dict[int, Tuple[List[np.ndarray], int]] = {}
        for node in self.nodes:
            if node.name in batch:
                icols, ni, dcols, nd = batch[node.name]
                ins[node.index] = _masked_atom_columns(
                    node.atom, icols, ni, self.dictionary)
                dels[node.index] = _masked_atom_columns(
                    node.atom, dcols, nd, self.dictionary)
        obs.count("delta.ops_applied", sum(n for _c, n in ins.values())
                  + sum(n for _c, n in dels.values()))
        if not any(node.live for node in self.nodes):
            self._recompute(ins)        # the seed: an empty state
            return
        gone = {idx: self.nodes[idx].kill(dcols, nd)
                for idx, (dcols, nd) in dels.items() if nd}
        self._propagate(ins, gone)

    def _recompute(self, ins) -> None:
        """Reload every node with its live rows and new rows, then take
        every contribution and message from the cold kernel."""
        self._reload(ins)
        relations = [ColumnarRelation.from_codes(
            node.variables, [c[:node.n] for c in node.cols], node.n,
            self.dictionary) for node in self.nodes]
        share = {node.index: node.share for node in self.nodes}
        for idx, values, groups, padded in acyclic_join_messages(
                relations, self.tree, share):
            node = self.nodes[idx]
            node.contrib[:node.n] = values
            if node.slotmaps[0] is None:        # the one key (), group 0
                node.msg = np.array([padded[0]], dtype=np.int64)
            else:
                node.msg = np.zeros(len(node.slotmaps[0]), dtype=np.int64)
                node.msg[node.slots[0][groups.first]] = \
                    padded[groups.first_ids]

    def _reload(self, ins) -> None:
        """Reload every node with its live rows and ``ins``'s new rows
        under fresh slot maps, each edge's keys slotted from both ends
        in one pass."""
        self._new_slotmaps()
        rows = []
        for node in self.nodes:
            live = np.flatnonzero(node.alive[:node.n])
            icols, ni = ins.get(node.index, ([_EMPTY] * len(node.cols), 0))
            rows.append(([np.concatenate([c[live], new[:ni]])
                          for c, new in zip(node.cols, icols)], len(live) + ni))
        slots = [[None] * len(node.keypos) for node in self.nodes]
        for node in self.nodes:
            if node.slotmaps[0] is None:
                continue
            parent = self.tree.parent[node.index]
            edge = 1 + self.tree.children[parent].index(node.index)
            (mine, n), (theirs, _m) = rows[node.index], rows[parent]
            both = node.slotmaps[0].slots([
                np.concatenate([mine[p], theirs[q]]) for p, q in
                zip(node.keypos[0], self.nodes[parent].keypos[edge])])
            slots[node.index][0], slots[parent][edge] = both[:n], both[n:]
        for node, (cols, n), node_slots in zip(self.nodes, rows, slots):
            node.reload(cols, n, node_slots)

    def _propagate(self, ins, gone) -> None:
        """Append the inserted rows, then walk the tree bottom-up: a
        node recomputes the contributions of its new rows and of its
        rows under a child key whose sum moved, and adds the differences,
        and the killed rows' contributions (``gone``), into its
        message."""
        nodes = self.nodes
        fresh = {idx: nodes[idx].load(icols, ni)
                 for idx, (icols, ni) in ins.items() if ni}
        self._fit_messages()
        moved: Dict[int, np.ndarray] = {}
        rechecked = 0
        for idx in self._order:
            node = nodes[idx]
            children = self.tree.children[idx]
            parts = [node.indexes[1 + s].rows_with(moved[c])
                     for s, c in enumerate(children) if len(moved[c])]
            new = fresh.get(idx, _EMPTY)
            if not parts and not len(new) and idx not in gone:
                moved[idx] = _EMPTY
                continue
            rows = parts[0] if len(parts) == 1 else \
                np.unique(np.concatenate(parts + [_EMPTY]))
            keep = node.alive[rows]
            if len(new):        # indexed too, but taken once
                keep &= rows < new[0]
            rows = np.concatenate([rows[keep], new])
            rechecked += len(rows)
            contrib = np.ones(len(rows), dtype=np.int64)
            for s, c in enumerate(children):
                contrib *= nodes[c].msg[node.key(1 + s, rows)]
            keys, deltas = node.key(0, rows), contrib - node.contrib[rows]
            node.contrib[rows] = contrib
            if idx in gone:
                keys = np.concatenate([keys, gone[idx][0]])
                deltas = np.concatenate([deltas, gone[idx][1]])
            if idx == self.tree.root:
                node.msg[0] += deltas.sum()
                continue
            keys, deltas = keys[deltas != 0], deltas[deltas != 0]
            touched = np.unique(keys)
            before = node.msg[touched]
            np.add.at(node.msg, keys, deltas)
            moved[idx] = touched[node.msg[touched] != before]
        obs.count("delta.rows_rechecked", rechecked)
        if self._slots_outgrown():
            self._recompute({})
            return
        for node in nodes:
            if node.n - node.live > max(node.live, TAIL_MIN):
                self._compact(node)

    def _fit_messages(self) -> None:
        """Grow each message to cover every slot of its edge."""
        for node in self.nodes:
            if node.slotmaps[0] is not None:
                node.msg = _grown(node.msg, len(node.slotmaps[0]))

    def _slots_outgrown(self) -> bool:
        """Do the slot maps hold more than twice the keys their edges'
        live rows can have, plus TAIL_MIN?  A key keeps its slot after
        its last row goes, so under churn the maps and messages would
        grow with every key ever seen; past this point they are rebuilt
        from the live rows, a rebuild paid for by the slots added
        since the last one."""
        held = reach = 0
        for node in self.nodes:
            if node.slotmaps[0] is not None:
                parent = self.nodes[self.tree.parent[node.index]]
                held += len(node.slotmaps[0])
                reach += node.live + parent.live
        return held > 2 * reach + TAIL_MIN

    @staticmethod
    def _compact(node: _CountNode) -> None:
        """Drop the dead rows (row ids change: the indexes are rebuilt)."""
        keep = np.flatnonzero(node.alive[:node.n])
        contrib = node.contrib[keep]
        node.reload([c[keep] for c in node.cols], len(keep),
                    [None if m is None else s[keep]
                     for s, m in zip(node.slots, node.slotmaps)])
        node.contrib[:len(keep)] = contrib

    @classmethod
    def caught_up(cls, plan: Any, cq: ConjunctiveQuery, db: Database,
                  deltas: Dict[str, Ops]) -> Optional["DeltaCounter"]:
        """The refresher of a quantifier-free count's plan-cache slot:
        its state refreshed with ``deltas``, or a state seeded from
        ``db`` in place of the cold total it holds until the first
        write.
        None (a cold rebuild) when the state is broken, fails to seed or
        is past its int64 bound, or when the counted relations' logged
        ops pass a tenth of their rows plus 4: on a 2-CPU host a refresh
        broke even with the cold rebuild at 0.11-0.28 of the rows from
        1,000 rows up, and at 2-18 ops on a few dozen rows."""
        names = {atom.relation for atom in cq.atoms}
        ops = sum(len(deltas.get(name, ())) for name in names)
        if ops > sum(len(db.relation(name)) for name in names) // 10 + 4:
            obs.count("delta.cold_cheaper")
            return None
        if isinstance(plan, cls):
            return plan.refreshed(deltas)
        try:
            return cls.build(cq, db)
        except Exception:  # defensive: a count that runs cold never fails
            obs.count("delta.refresh_broken")
            return None

    def refreshed(self, deltas: Dict[str, Ops]) -> Optional["DeltaCounter"]:
        """Catch the plan up; None (cold fallback) when broken or when
        the int64 bound cannot be guaranteed."""
        if self._broken:
            return None
        try:
            batch = {name: self._net(name, ops)
                     for name, ops in deltas.items()
                     if name in self._arity and ops}
            if not self._fits({name: b[1] for name, b in batch.items()}):
                obs.count("delta.count_bound_exceeded")
                return None
            self._apply(batch)
        except Exception:  # defensive: never serve a half-refreshed plan
            self._broken = True
            obs.count("delta.refresh_broken")
            return None
        return self

    def total(self) -> int:
        """The maintained |join|."""
        return int(self.nodes[self.tree.root].msg[0])


__all__ = ["DeltaCounter", "SupportCounters"]
