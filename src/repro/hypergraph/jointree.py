"""Join trees and alpha-acyclicity via GYO reduction (Section 4.1).

A *join tree* of H = (V, E) is a tree whose nodes are the hyperedges of H
such that for every vertex v, the nodes containing v form a connected
subtree (the "running intersection" / connectedness condition).  H is
*alpha-acyclic* iff it has a join tree, iff the Graham / Yu-Ozsoyoglu (GYO)
reduction empties it.

The GYO reduction repeats two operations until neither applies:

1. delete a vertex that occurs in at most one edge (an "isolated" vertex);
2. delete an edge that is contained in another (distinct) edge, recording
   the container as its *witness*.

The witnesses assemble into a join tree over the original edges.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.errors import NotAcyclicError
from repro.hypergraph.hypergraph import Hypergraph

V = Hashable


class JoinTree:
    """A join tree over edge *indexes* of a hypergraph.

    Nodes are indexes into ``hypergraph.edges`` so that several atoms with
    identical variable sets stay distinct nodes.
    """

    def __init__(self, hypergraph: Hypergraph, root: int,
                 parent: Dict[int, Optional[int]]):
        self.hypergraph = hypergraph
        self.root = root
        self.parent = dict(parent)
        self.children: Dict[int, List[int]] = {i: [] for i in parent}
        for node, par in parent.items():
            if par is not None:
                self.children[par].append(node)

    # -------------------------------------------------------------- traversal

    def nodes(self) -> List[int]:
        return list(self.parent)

    def edge_of(self, node: int) -> FrozenSet[V]:
        return self.hypergraph.edges[node]

    def bottom_up(self) -> List[int]:
        """Nodes in an order where every node precedes its parent."""
        order: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(self.children[node])
        order.reverse()
        return order

    def top_down(self) -> List[int]:
        return list(reversed(self.bottom_up()))

    def leaves(self) -> List[int]:
        return [n for n, ch in self.children.items() if not ch]

    def tree_edges(self) -> List[Tuple[int, int]]:
        return [(par, node) for node, par in self.parent.items() if par is not None]

    def rerooted(self, new_root: int) -> "JoinTree":
        """The same tree rooted at another node."""
        adjacency: Dict[int, Set[int]] = {n: set() for n in self.parent}
        for par, node in self.tree_edges():
            adjacency[par].add(node)
            adjacency[node].add(par)
        parent: Dict[int, Optional[int]] = {new_root: None}
        stack = [new_root]
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if w not in parent:
                    parent[w] = u
                    stack.append(w)
        return JoinTree(self.hypergraph, new_root, parent)

    # ------------------------------------------------------------- invariants

    def is_valid(self) -> bool:
        """Check the connectedness condition for every vertex."""
        if set(self.parent) != set(range(len(self.hypergraph.edges))):
            return False
        adjacency: Dict[int, Set[int]] = {n: set() for n in self.parent}
        for par, node in self.tree_edges():
            adjacency[par].add(node)
            adjacency[node].add(par)
        for v in self.hypergraph.vertices:
            holding = [i for i, e in enumerate(self.hypergraph.edges) if v in e]
            if len(holding) <= 1:
                continue
            holding_set = set(holding)
            start = holding[0]
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in adjacency[u]:
                    if w in holding_set and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if seen != holding_set:
                return False
        return True

    def __repr__(self) -> str:
        def fmt(node: int, depth: int) -> List[str]:
            label = "{" + ",".join(sorted(map(str, self.edge_of(node)))) + "}"
            lines = ["  " * depth + label]
            for child in self.children[node]:
                lines.extend(fmt(child, depth + 1))
            return lines

        return "\n".join(fmt(self.root, 0))


def gyo_reduction(h: Hypergraph) -> Tuple[List[FrozenSet[V]], Dict[int, int]]:
    """Run the GYO reduction.

    Returns ``(residual_edges, witness)`` where ``residual_edges`` is what
    remains (empty or a single empty-ish edge iff H is alpha-acyclic) and
    ``witness`` maps each removed edge index to the edge index it was
    absorbed into.
    """
    # current contents of each edge; None = removed
    current: List[Optional[Set[V]]] = [set(e) for e in h.edges]
    witness: Dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        # count occurrences of each vertex among live edges
        occurrences: Dict[V, int] = {}
        for e in current:
            if e is None:
                continue
            for v in e:
                occurrences[v] = occurrences.get(v, 0) + 1
        # rule 1: drop vertices occurring in at most one live edge
        for e in current:
            if e is None:
                continue
            lonely = {v for v in e if occurrences[v] <= 1}
            if lonely:
                e -= lonely
                changed = True
        # rule 2: absorb an edge contained in another live edge
        live = [(i, e) for i, e in enumerate(current) if e is not None]
        for i, e in live:
            for j, f in live:
                if i != j and current[i] is not None and current[j] is not None:
                    if current[i] <= current[j]:
                        witness[i] = j
                        current[i] = None
                        changed = True
                        break
    residual = [frozenset(e) for e in current if e is not None and e]
    # fully-emptied edges (by rule 1) that were never absorbed are harmless
    return residual, witness


def is_alpha_acyclic(h: Hypergraph) -> bool:
    """H has a join tree iff the GYO reduction leaves nothing non-empty."""
    if not h.edges:
        return True
    residual, _ = gyo_reduction(h)
    return not residual


def build_join_tree(h: Hypergraph) -> JoinTree:
    """Build a join tree of H, or raise :class:`NotAcyclicError`.

    The witness map of the GYO reduction links each absorbed edge to its
    absorber; edges emptied by vertex deletion without being absorbed are
    attached to an arbitrary surviving edge (they share no vertex with
    anything at that point, so any attachment preserves connectedness).
    """
    if not h.edges:
        raise NotAcyclicError("cannot build a join tree of an edgeless hypergraph")
    residual, witness = gyo_reduction(h)
    if residual:
        raise NotAcyclicError(f"hypergraph is cyclic: residual edges {residual}")
    n = len(h.edges)
    # find a root: an edge never absorbed (there is at least one)
    unabsorbed = [i for i in range(n) if i not in witness]
    root = unabsorbed[0]
    parent: Dict[int, Optional[int]] = {root: None}
    for i in range(n):
        if i == root:
            continue
        if i in witness:
            parent[i] = witness[i]
        else:
            # emptied by vertex deletions: attach to the root
            parent[i] = root
    # compress: witnesses may point at other absorbed edges, which is fine —
    # the structure is a forest rooted at `root` plus stray unabsorbed edges
    for i in unabsorbed[1:]:
        parent[i] = root
    tree = JoinTree(h, root, parent)
    if not tree.is_valid():  # pragma: no cover - defensive
        raise NotAcyclicError("internal error: GYO produced an invalid join tree")
    return tree


_TREE_CACHE: Dict[Tuple[FrozenSet[V], Tuple[FrozenSet[V], ...]], JoinTree] = {}
_TREE_CACHE_LIMIT = 256


def cached_join_tree(h: Hypergraph) -> JoinTree:
    """Build (or reuse) a join tree, memoised on the hypergraph.

    Keyed on ``(vertices, ordered edges)`` — two structurally identical
    hypergraphs (e.g. the same query evaluated against many databases)
    share one tree, so repeated ``yannakakis()`` calls skip the GYO
    reduction entirely.  A :class:`JoinTree` is never mutated by its
    consumers, so sharing is safe.
    """
    key = (h.vertices, h.edges)
    tree = _TREE_CACHE.get(key)
    if tree is None:
        tree = build_join_tree(h)
        if len(_TREE_CACHE) >= _TREE_CACHE_LIMIT:
            _TREE_CACHE.clear()
        _TREE_CACHE[key] = tree
    return tree


def join_tree_of_query(cq) -> JoinTree:
    """Join tree of a conjunctive query's hypergraph; node i = atom i."""
    return cached_join_tree(cq.hypergraph())
