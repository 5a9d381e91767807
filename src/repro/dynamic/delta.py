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
* :class:`DeltaCounter` maintains the Theorem 4.21 counting DP: per node
  row it stores the contribution (product of child message factors) and
  per node the message (per-key contribution sums); a delta subtracts
  and re-adds exactly the contributions it touches, and value changes
  ripple to the parent only for the keys whose sums moved.  It is the
  one plan the plan cache refreshes (``REPRO_INCREMENTAL``); every other
  plan rebuilds cold after a write.

``DeltaCounter``'s plan-cache refresher mutates in place; an
unexpected mid-refresh failure marks the state broken so the cache falls
back to a cold build instead of serving a corrupt plan.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.data.database import Database
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

    def _seed(self, db: Database, span: str):
        """Load the query's relations of ``db`` as one insert batch."""
        rels = {atom.relation: db.relation_for(atom) for atom in self.cq.atoms}
        with obs.span(span, nodes=len(self.nodes)):
            return self._apply({name: [("+", t) for t in rel]
                                for name, rel in rels.items()})


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
    _broken = False

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

    def refreshed(self, deltas: Dict[str, Ops]) -> Optional["DeltaCounter"]:
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

    def total(self) -> int:
        """The maintained |join| (0 on an empty root message)."""
        return self.nodes[self.tree.root].msg.get((), 0)


__all__ = ["DeltaCounter", "SupportCounters"]
