"""Delta propagation through join-tree plans.

Every structure here stores the materialised atom rows of one join tree
and catches up with per-relation ``('+' | '-', tuple)`` ops — the
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
* :class:`DeltaReducer` extends it to the full-reducer fixpoint: a
  top-down wave maintains ``down`` marks (the row survives both semijoin
  passes, i.e. belongs to the reduced output) with per-child-key counts
  of down rows, and columnar tiers keep physically-appended code columns
  so the reduced relations are emitted by one boolean gather.
* :class:`DeltaCounter` maintains the Theorem 4.21 counting DP: per node
  row it stores the contribution (product of child message factors) and
  per node the message (per-key contribution sums); a delta subtracts
  and re-adds exactly the contributions it touches, and value changes
  ripple to the parent only for the keys whose sums moved.

The two plan-cache refreshers mutate in place and return ``None``
*before* touching state when a delta shape is unsupported, matching the
contract of :func:`repro.core.plancache.cached_plan`; an unexpected
mid-refresh failure marks the state broken so the cache falls back to
cold builds instead of serving a corrupt plan.

Honest non-guarantee (mirroring :mod:`repro.dynamic.view`): the refresh
makes *preprocessing* incremental; enumeration delay after an update is
measured by the dynamic bench suite, not assumed constant.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro import obs
from repro.data.database import Database
from repro.engine.base import ColumnarEngine
from repro.engine.columnar import ColumnarRelation
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
    """Join-tree node skeleton shared by every delta structure."""

    __slots__ = ("index", "name", "variables", "positions", "atom_map",
                 "parent", "children", "slot", "share", "share_pos",
                 "child_key_pos", "rows", "pgroup", "cgroup")

    def __init__(self, index: int, atom):
        self.index = index
        self.name = atom.relation
        self.variables: Tuple[Variable, ...] = atom.variables()
        self.positions = {v: i for i, v in enumerate(self.variables)}
        self.atom_map = _AtomMap(atom)
        self.parent: Optional[int] = None
        self.children: List[int] = []
        self.slot = 0                       # index among parent's children
        self.share: Tuple[Variable, ...] = ()
        self.share_pos: List[int] = []      # positions of `share` in own row
        self.child_key_pos: List[List[int]] = []  # per child slot
        self.rows: Dict[Tup, Any] = {}
        # own rows grouped by parent-shared key / by child-shared key
        self.pgroup: Dict[Tup, Set[Tup]] = {}
        self.cgroup: List[Dict[Tup, Set[Tup]]] = []

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


def _build_skeleton(cq: ConjunctiveQuery, tree: JoinTree,
                    node_cls) -> List["_Node"]:
    """One node per atom.  A node's key ``share`` is its variables that
    occur in its tree parent's edge; a parent that is no atom (the
    virtual free edge of a free-connex tree) makes the node a root."""
    nodes = [node_cls(i, atom) for i, atom in enumerate(cq.atoms)]
    for i, node in enumerate(nodes):
        node.children = list(tree.children[i])
        node.cgroup = [{} for _ in node.children]
        parent = tree.parent[i]
        if parent is None:
            continue
        edge = tree.edge_of(parent)
        node.share = tuple(v for v in node.variables if v in edge)
        node.share_pos = [node.positions[v] for v in node.share]
        if parent < len(nodes):
            node.parent = parent
            node.slot = tree.children[parent].index(i)
    for node in nodes:
        node.child_key_pos = [
            [node.positions[v] for v in nodes[c].share]
            for c in node.children]
    return nodes


def _bump(counter: Dict[Tup, int], key: Tup, delta: int) -> bool:
    """Adjust a support counter; True when it crossed zero."""
    old = counter.get(key, 0)
    new = old + delta
    if new > 0:
        counter[key] = new
    else:
        counter.pop(key, None)
    return (old > 0) != (new > 0)


class _DeltaPlan:
    """A skeleton of ``_node_cls`` nodes over a join tree, seeded cold and
    then caught up with delta batches by the subclass's ``_apply``."""

    _node_cls = _Node

    def __init__(self, cq: ConjunctiveQuery, tree: JoinTree):
        self.cq = cq
        self.tree = tree
        self.nodes = _build_skeleton(cq, tree, self._node_cls)
        self._by_relation: Dict[str, List[int]] = {}
        for node in self.nodes:
            self._by_relation.setdefault(node.name, []).append(node.index)
        self._broken = False

    def _seed(self, db: Database, span: str):
        """Load the query's relations of ``db`` as one insert batch."""
        rels = {atom.relation: db.relation_for(atom) for atom in self.cq.atoms}
        with obs.span(span, nodes=len(self.nodes)):
            return self._apply({name: [("+", t) for t in rel]
                                for name, rel in rels.items()})

    def refreshed(self, deltas: Dict[str, Ops]) -> Optional["_DeltaPlan"]:
        """Catch the plan up; None (cold fallback) when broken."""
        if self._broken:
            return None
        try:
            self._apply(deltas)
        except Exception:  # defensive: never serve a half-refreshed plan
            self._broken = True
            obs.count("delta.refresh_broken")
            return None
        return self


# ------------------------------------------------------------- up wave


class _UpNode(_Node):
    """Adds the up marks and the per-parent-key count of up rows."""

    __slots__ = ("up", "up_count")

    def __init__(self, index: int, atom):
        super().__init__(index, atom)
        self.up: Set[Tup] = set()
        self.up_count: Dict[Tup, int] = {}


class SupportCounters(_DeltaPlan):
    """Base rows and the bottom-up semijoin wave of one join tree.

    A row is *up* when every child has an up row under the row's key for
    that child, so the up rows of a node are its subtree's semijoin
    reduct.  ``_apply`` runs one batch of ops and returns, per node, the
    parent keys whose ``up_count`` crossed zero (in either direction).
    """

    _node_cls = _UpNode

    def __init__(self, cq: ConjunctiveQuery, tree: JoinTree):
        super().__init__(cq, tree)
        self._bottom_up = [i for i in tree.bottom_up()
                           if i < len(self.nodes)]

    def _apply(self, deltas: Dict[str, Ops]) -> Dict[int, Set[Tup]]:
        recheck: Dict[int, Set[Tup]] = {}
        crossed: Dict[int, Set[Tup]] = {}
        self._base_ops(deltas, recheck, crossed)
        self._up_wave(recheck, crossed)
        return crossed

    def _base_ops(self, deltas: Dict[str, Ops],
                  recheck: Dict[int, Set[Tup]],
                  crossed: Dict[int, Set[Tup]]) -> int:
        """Inserts queue an up recheck; deletes drop their up support
        now.  Returns the number of ops that matched an atom."""
        nodes = self.nodes
        n_ops = 0
        for name, ops in deltas.items():
            for idx in self._by_relation.get(name, ()):
                node = nodes[idx]
                for op, t in ops:
                    row = node.atom_map.row_of(t)
                    if row is None:
                        continue
                    n_ops += 1
                    if op == "+":
                        if row in node.rows:
                            continue
                        node.rows[row] = None
                        node.group_add(row)
                        recheck.setdefault(idx, set()).add(row)
                        self._inserted(node, row)
                    elif row in node.rows:
                        self._removing(node, row)
                        if row in node.up:
                            node.up.discard(row)
                            key = node.pkey(row)
                            if _bump(node.up_count, key, -1):
                                crossed.setdefault(idx, set()).add(key)
                        del node.rows[row]
                        node.group_remove(row)
        return n_ops

    def _inserted(self, node: _UpNode, row: Tup) -> None:
        """Hook: ``row`` was just added to ``node``."""

    def _removing(self, node: _UpNode, row: Tup) -> None:
        """Hook: ``row`` is about to leave ``node``."""

    def _up_wave(self, recheck: Dict[int, Set[Tup]],
                 crossed: Dict[int, Set[Tup]]
                 ) -> Tuple[int, Dict[int, List[Tup]]]:
        """Recheck the up marks children first, so a node sees its
        children's final counts.  Returns the number of rows rechecked
        and, per node, the rows whose mark flipped."""
        nodes = self.nodes
        flipped: Dict[int, List[Tup]] = {}
        rechecked = 0
        for idx in self._bottom_up:
            node = nodes[idx]
            pending = recheck.get(idx, set())
            for slot, child_idx in enumerate(node.children):
                for key in crossed.get(child_idx, ()):
                    pending |= node.cgroup[slot].get(key, set())
            for row in pending:
                if row not in node.rows:
                    continue
                rechecked += 1
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
                flipped.setdefault(idx, []).append(row)
        return rechecked, flipped


# ------------------------------------------------------------------ reducer


class _ReducerNode(_UpNode):
    """Adds the down marks, their per-child-key support counters, and (in
    columnar mode) physically-appended code columns with a down mask, so
    the reduced relation is emitted by one boolean gather."""

    __slots__ = ("down", "down_count", "cols", "size", "down_mask",
                 "emitted", "dirty", "added_rows", "append_only")

    def __init__(self, index: int, atom):
        super().__init__(index, atom)
        self.down: Set[Tup] = set()
        self.down_count: List[Dict[Tup, int]] = []
        self.cols: Optional[List[np.ndarray]] = None
        self.size = 0
        self.down_mask: Optional[np.ndarray] = None
        self.emitted = None
        self.dirty = True
        # rows added since the last emission, in insertion order
        self.added_rows: Dict[Tup, None] = {}
        self.append_only = True


class DeltaReducer(SupportCounters):
    """An incrementally maintained full-reducer plan.

    ``build`` runs the characterisation cold (every row inserted and
    rechecked); ``refreshed`` replays a per-relation delta map; and
    ``result`` emits ``(tree, reduced relations)`` byte-identical —
    contents *and* row order — to what ``_full_reduce`` computes on the
    updated database with the same engine family.
    """

    _node_cls = _ReducerNode

    def __init__(self, cq: ConjunctiveQuery, tree: JoinTree, engine):
        super().__init__(cq, tree)
        for node in self.nodes:
            node.down_count = [{} for _ in node.children]
        self._columnar = isinstance(engine, ColumnarEngine)
        self._dict = engine.dictionary if self._columnar else None
        # per batch: the rows appended to each node, in insertion order,
        # and the child keys whose down count crossed zero per (node, slot)
        self._appended: Dict[int, Dict[Tup, None]] = {}
        self._down_crossed: Dict[Tuple[int, int], Set[Tup]] = {}

    # ----------------------------------------------------------- lifecycle

    @staticmethod
    def supports(cq: ConjunctiveQuery, engine) -> bool:
        """Can this query/engine pair be maintained with order parity?

        The columnar family materialises atoms by boolean masks over the
        base columns, which the replay reproduces exactly.  The tuple
        backend materialises repeated-variable atoms through diagonal
        index buckets whose order is not the base insertion order, so
        those stay on the cold path.
        """
        if isinstance(engine, ColumnarEngine):
            return True
        for atom in cq.atoms:
            var_terms = [t for t in atom.terms if isinstance(t, Variable)]
            if len(set(var_terms)) != len(var_terms):
                return False
        return True

    @classmethod
    def build(cls, cq: ConjunctiveQuery, db: Database,
              engine) -> "DeltaReducer":
        state = cls(cq, cached_join_tree(cq.hypergraph()), engine)
        state._seed(db, "delta.reducer_build")
        return state

    # ----------------------------------------------------------- the waves

    def _apply(self, deltas: Dict[str, Ops]) -> Dict[int, Set[Tup]]:
        nodes = self.nodes
        self._appended, self._down_crossed = {}, {}
        recheck: Dict[int, Set[Tup]] = {}
        crossed: Dict[int, Set[Tup]] = {}
        obs.count("delta.ops_applied",
                  self._base_ops(deltas, recheck, crossed))
        if self._columnar:
            for idx, new_rows in self._appended.items():
                self._append_codes(nodes[idx], list(new_rows))
        rechecked, flipped = self._up_wave(recheck, crossed)
        for idx, rows in flipped.items():
            node = nodes[idx]
            node.dirty = True
            added_here = self._appended.get(idx, {})
            if any(row not in added_here for row in rows):
                node.append_only = False
        rechecked += self._down_wave(flipped)
        obs.count("delta.rows_rechecked", rechecked)
        if self._columnar:
            for node in nodes:
                self._maybe_compact(node)
        return crossed

    def _inserted(self, node: _ReducerNode, row: Tup) -> None:
        # its physical index is assigned when the batch is encoded
        self._appended.setdefault(node.index, {})[row] = None
        node.added_rows[row] = None
        node.dirty = True

    def _removing(self, node: _ReducerNode, row: Tup) -> None:
        node.dirty = True
        phys = node.rows[row]
        if self._columnar and phys is None:
            # added earlier in this very batch, not yet encoded: cancel
            # the pending append instead of tombstoning anything
            del self._appended[node.index][row]
        else:
            node.append_only = False
        if row in node.down:
            node.down.discard(row)
            for slot in range(len(node.children)):
                key = node.ckey(slot, row)
                if _bump(node.down_count[slot], key, -1):
                    self._down_crossed.setdefault((node.index, slot),
                                                  set()).add(key)
        if self._columnar and phys is not None:
            node.down_mask[phys] = False
        node.added_rows.pop(row, None)

    def _down_wave(self, flipped: Dict[int, List[Tup]]) -> int:
        """Recheck the down marks parents first, so a node sees its
        parent's final down counts.  Returns the rows rechecked."""
        nodes = self.nodes
        down_crossed = self._down_crossed
        recheck: Dict[int, Set[Tup]] = {}
        for idx, rows in flipped.items():
            recheck.setdefault(idx, set()).update(rows)
        for idx, new_rows in self._appended.items():
            recheck.setdefault(idx, set()).update(new_rows)
        rechecked = 0
        for idx in reversed(self._bottom_up):
            node = nodes[idx]
            pending = recheck.get(idx, set())
            if node.parent is not None:
                for key in down_crossed.get((node.parent, node.slot), ()):
                    pending |= node.pgroup.get(key, set())
            added_here = self._appended.get(idx, {})
            for row in pending:
                if row not in node.rows:
                    continue
                rechecked += 1
                new_down = row in node.up
                if new_down and node.parent is not None:
                    parent = nodes[node.parent]
                    new_down = parent.down_count[node.slot].get(
                        node.pkey(row), 0) > 0
                if new_down == (row in node.down):
                    continue
                if new_down:
                    node.down.add(row)
                else:
                    node.down.discard(row)
                if self._columnar:
                    node.down_mask[node.rows[row]] = new_down
                for slot in range(len(node.children)):
                    key = node.ckey(slot, row)
                    if _bump(node.down_count[slot], key,
                             1 if new_down else -1):
                        down_crossed.setdefault((idx, slot), set()).add(key)
                if row not in added_here:
                    node.append_only = False
                node.dirty = True
        return rechecked

    # --------------------------------------------------------- columnar io

    def _append_codes(self, node: _ReducerNode, new_rows: List[Tup]) -> None:
        from repro.engine.columnar import _encode_rows

        width = len(node.variables)
        new_cols = _encode_rows(new_rows, width, self._dict)
        if node.cols is None:
            node.cols = new_cols if width else []
            node.down_mask = np.zeros(len(new_rows), dtype=bool)
        else:
            node.cols = [np.concatenate([old, new])
                         for old, new in zip(node.cols, new_cols)]
            node.down_mask = np.concatenate(
                [node.down_mask, np.zeros(len(new_rows), dtype=bool)])
        for i, row in enumerate(new_rows):
            node.rows[row] = node.size + i
        node.size += len(new_rows)

    def _maybe_compact(self, node: _ReducerNode) -> None:
        dead = node.size - len(node.rows)
        if dead <= max(1024, len(node.rows)):
            return
        keep = np.fromiter(node.rows.values(), dtype=np.int64,
                           count=len(node.rows))
        node.cols = [c[keep] for c in (node.cols or [])]
        node.down_mask = node.down_mask[keep]
        node.size = len(node.rows)
        for i, row in enumerate(node.rows):
            node.rows[row] = i

    # ------------------------------------------------------------ emission

    def _emit(self, node: _ReducerNode):
        if not node.dirty and node.emitted is not None:
            return node.emitted
        if not self._columnar:
            from repro.eval.join import VarRelation

            rel = VarRelation(node.variables,
                              (r for r in node.rows if r in node.down))
        else:
            prev = node.emitted
            new_alive = [r for r in node.added_rows if r in node.down]
            if (prev is not None and node.append_only
                    and len(new_alive) == len(node.added_rows)):
                if new_alive:
                    phys = np.fromiter((node.rows[r] for r in new_alive),
                                       dtype=np.int64, count=len(new_alive))
                    rel = prev.extended_with(
                        [c[phys] for c in node.cols], len(new_alive))
                    obs.count("delta.emit_appends")
                else:
                    # every change this round was an append cancelled by a
                    # same-batch delete: the emitted relation is unchanged
                    rel = prev
            else:
                # a node that never saw a row has no encoded columns yet;
                # emit one empty column per variable, not zero columns
                cols = (node.cols if node.cols is not None
                        else [np.zeros(0, dtype=np.int64)
                              for _ in node.variables])
                mask = (node.down_mask[:node.size]
                        if node.down_mask is not None
                        else np.zeros(0, dtype=bool))
                rel = ColumnarRelation.from_codes(
                    node.variables,
                    [c[:node.size][mask] for c in cols],
                    len(node.down), self._dict)
        node.emitted = rel
        node.dirty = False
        node.added_rows = {}
        node.append_only = True
        return rel

    def result(self):
        """``(tree, reduced relations)`` in atom order."""
        return self.tree, [self._emit(node) for node in self.nodes]


# ------------------------------------------------------------------ counter


class _CounterNode(_Node):
    """``rows`` maps each present row to its DP contribution (product of
    child message factors; 0 when some child key is dead); ``msg`` holds
    the per-parent-key contribution sums with zero-sum keys removed."""

    __slots__ = ("msg",)

    def __init__(self, index: int, atom):
        super().__init__(index, atom)
        self.msg: Dict[Tup, int] = {}


class DeltaCounter(_DeltaPlan):
    """An incrementally maintained Theorem 4.21 counting DP.

    Engine-independent (rows and keys are plain value tuples) and exact:
    the maintained total is the same int the cold message passing
    computes, on any backend.  Unweighted only — float message sums are
    order-sensitive, so weighted counting stays cold.
    """

    _node_cls = _CounterNode

    @staticmethod
    def supports(cq: ConjunctiveQuery) -> bool:
        """Quantifier-free, comparison-free, no zero-ary atoms (those
        take the truth-value short-circuits of the cold kernel)."""
        if not cq.is_quantifier_free() or cq.has_comparisons():
            return False
        return all(len(atom.variables()) > 0 for atom in cq.atoms)

    @classmethod
    def build(cls, cq: ConjunctiveQuery, db: Database) -> "DeltaCounter":
        state = cls(cq, cached_join_tree(cq.hypergraph()))
        state._seed(db, "delta.counter_build")
        return state

    def _adjust(self, node: _CounterNode, key: Tup, delta: int,
                changed: Dict[int, Set[Tup]]) -> None:
        if delta == 0:
            return
        new = node.msg.get(key, 0) + delta
        if new:
            node.msg[key] = new
        else:
            node.msg.pop(key, None)
        if node.parent is not None:
            changed.setdefault(node.index, set()).add(key)

    def _apply(self, deltas: Dict[str, Ops]) -> None:
        nodes = self.nodes
        recheck: Dict[int, Set[Tup]] = {}
        changed_keys: Dict[int, Set[Tup]] = {}
        n_ops = 0
        for name, ops in deltas.items():
            for idx in self._by_relation.get(name, ()):
                node = nodes[idx]
                for op, t in ops:
                    row = node.atom_map.row_of(t)
                    if row is None:
                        continue
                    n_ops += 1
                    if op == "+":
                        if row in node.rows:
                            continue
                        node.rows[row] = 0
                        node.group_add(row)
                        recheck.setdefault(idx, set()).add(row)
                    else:
                        contrib = node.rows.pop(row, None)
                        if contrib is None:
                            continue
                        node.group_remove(row)
                        self._adjust(node, node.pkey(row), -contrib,
                                     changed_keys)
        obs.count("delta.ops_applied", n_ops)

        rechecked = 0
        for idx in self.tree.bottom_up():
            node = nodes[idx]
            pending = recheck.get(idx, set())
            for slot, child_idx in enumerate(node.children):
                for key in changed_keys.get(child_idx, ()):
                    pending |= node.cgroup[slot].get(key, set())
            for row in pending:
                if row not in node.rows:
                    continue
                rechecked += 1
                contrib = 1
                for slot, child_idx in enumerate(node.children):
                    factor = nodes[child_idx].msg.get(node.ckey(slot, row), 0)
                    if factor == 0:
                        contrib = 0
                        break
                    contrib *= factor
                old = node.rows[row]
                if contrib == old:
                    continue
                node.rows[row] = contrib
                self._adjust(node, node.pkey(row), contrib - old,
                             changed_keys)
        obs.count("delta.rows_rechecked", rechecked)

    def total(self) -> int:
        """The maintained |join| (0 on an empty root message)."""
        return self.nodes[self.tree.root].msg.get((), 0)


__all__ = ["DeltaCounter", "DeltaReducer", "SupportCounters"]
