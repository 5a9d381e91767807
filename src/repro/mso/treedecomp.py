"""Tree decompositions of graphs.

A tree decomposition of G = (V, E) is a tree of *bags* (vertex subsets)
such that every vertex appears in some bag, every edge is inside some
bag, and each vertex's bags form a connected subtree; its width is the
largest bag size minus one.  Treewidth is the minimum width over all
decompositions — the parameter of Courcelle's theorem (Section 3.3).

Decompositions are built from elimination orders (min-degree or min-fill
heuristics — exact on trees, cycles and other small-treewidth staples),
validated against the three conditions, and normalised into *nice* form
(leaf / introduce / forget / join nodes) for the DP harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.data.database import Database

V = Hashable
Graph = Dict[V, Set[V]]


def adjacency_from_database(db: Database, edge_name: str = "E") -> Graph:
    """Undirected adjacency from a binary edge relation."""
    adj: Graph = {v: set() for v in db.domain}
    for u, w in db.relation(edge_name):
        if u != w:
            adj[u].add(w)
            adj[w].add(u)
    return adj


@dataclass
class TreeDecomposition:
    """Bags + rooted tree structure (parent indexes; root has parent None)."""

    bags: List[FrozenSet[V]]
    parent: List[Optional[int]]

    def __post_init__(self) -> None:
        self.children: List[List[int]] = [[] for _ in self.bags]
        self.root = 0
        for i, p in enumerate(self.parent):
            if p is None:
                self.root = i
            else:
                self.children[p].append(i)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1

    def bottom_up(self) -> List[int]:
        order: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(self.children[node])
        order.reverse()
        return order

    def is_valid(self, graph: Graph) -> bool:
        """The three tree-decomposition conditions."""
        vertices = set(graph)
        covered: Set[V] = set()
        for b in self.bags:
            covered |= b
        if not vertices <= covered:
            return False
        for u in graph:
            for w in graph[u]:
                if not any(u in b and w in b for b in self.bags):
                    return False
        # connectivity of each vertex's bag set
        adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(self.bags))}
        for i, p in enumerate(self.parent):
            if p is not None:
                adjacency[i].add(p)
                adjacency[p].add(i)
        for v in vertices:
            holding = [i for i, b in enumerate(self.bags) if v in b]
            if not holding:
                return False
            seen = {holding[0]}
            stack = [holding[0]]
            holding_set = set(holding)
            while stack:
                i = stack.pop()
                for j in adjacency[i]:
                    if j in holding_set and j not in seen:
                        seen.add(j)
                        stack.append(j)
            if seen != holding_set:
                return False
        return True


def _elimination_order(graph: Graph, strategy: str) -> List[V]:
    if strategy == "min_degree":
        return _min_degree_order(graph)
    adj: Graph = {v: set(ns) for v, ns in graph.items()}
    order: List[V] = []
    remaining = set(adj)
    while remaining:
        if strategy == "min_fill":
            def fill(u: V) -> int:
                ns = list(adj[u])
                return sum(
                    1
                    for i in range(len(ns))
                    for j in range(i + 1, len(ns))
                    if ns[j] not in adj[ns[i]]
                )

            v = min(remaining, key=lambda u: (fill(u), len(adj[u]), str(u)))
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        order.append(v)
        neighbours = list(adj[v])
        for i in range(len(neighbours)):
            for j in range(i + 1, len(neighbours)):
                adj[neighbours[i]].add(neighbours[j])
                adj[neighbours[j]].add(neighbours[i])
        for u in neighbours:
            adj[u].discard(v)
        del adj[v]
        remaining.discard(v)
    return order


def _min_degree_order(graph: Graph) -> List[V]:
    """Heap-based min-degree elimination: near-linear on sparse graphs."""
    import heapq

    adj: Graph = {v: set(ns) for v, ns in graph.items()}
    heap = [(len(ns), str(v), v) for v, ns in adj.items()]
    heapq.heapify(heap)
    eliminated: Set[V] = set()
    order: List[V] = []
    while heap:
        degree, _key, v = heapq.heappop(heap)
        if v in eliminated:
            continue
        if degree != len(adj[v]):
            heapq.heappush(heap, (len(adj[v]), str(v), v))
            continue
        order.append(v)
        eliminated.add(v)
        neighbours = list(adj[v])
        for i in range(len(neighbours)):
            for j in range(i + 1, len(neighbours)):
                a, b = neighbours[i], neighbours[j]
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
        for u in neighbours:
            adj[u].discard(v)
            heapq.heappush(heap, (len(adj[u]), str(u), u))
        del adj[v]
    return order


def tree_decomposition(graph: Graph, strategy: str = "min_degree") -> TreeDecomposition:
    """Elimination-order decomposition (classic construction).

    For elimination order v_1..v_n, bag(v_i) = {v_i} + its neighbours
    among v_{i+1}..v_n in the fill-in graph; bag(v_i)'s parent is the bag
    of the earliest-eliminated vertex of bag(v_i) - {v_i}.
    """
    if not graph:
        return TreeDecomposition([frozenset()], [None])
    order = _elimination_order(graph, strategy)
    position = {v: i for i, v in enumerate(order)}
    adj: Graph = {v: set(ns) for v, ns in graph.items()}
    bags: List[FrozenSet[V]] = []
    higher_neighbours: List[List[V]] = []
    for v in order:
        later = [u for u in adj[v] if position[u] > position[v]]
        bags.append(frozenset([v] + later))
        higher_neighbours.append(later)
        for i in range(len(later)):
            for j in range(i + 1, len(later)):
                adj[later[i]].add(later[j])
                adj[later[j]].add(later[i])
        for u in later:
            adj[u].discard(v)
    parent: List[Optional[int]] = [None] * len(bags)
    for i, later in enumerate(higher_neighbours):
        if later:
            first = min(later, key=lambda u: position[u])
            parent[i] = position[first]
    # ensure a single root: attach stray roots (disconnected components)
    roots = [i for i, p in enumerate(parent) if p is None]
    for extra in roots[1:]:
        parent[extra] = roots[0]
    # re-root at roots[0]
    td = TreeDecomposition(bags, parent)
    return td


# ------------------------------------------------------------- nice form


@dataclass
class NiceNode:
    """kind in {'leaf', 'introduce', 'forget', 'join'}; ``vertex`` set for
    introduce/forget; children indexes."""

    kind: str
    bag: FrozenSet[V]
    vertex: Optional[V] = None
    children: Tuple[int, ...] = ()


@dataclass
class NiceTreeDecomposition:
    nodes: List[NiceNode]
    root: int

    @property
    def width(self) -> int:
        return max((len(n.bag) for n in self.nodes), default=1) - 1

    def bottom_up(self) -> List[int]:
        order: List[int] = []
        stack = [self.root]
        while stack:
            i = stack.pop()
            order.append(i)
            stack.extend(self.nodes[i].children)
        order.reverse()
        return order


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Normalise into leaf/introduce/forget/join nodes with the root bag
    empty (standard construction)."""
    nodes: List[NiceNode] = []

    def add(node: NiceNode) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def chain_to(bag_from: FrozenSet[V], bag_to: FrozenSet[V], child: int) -> int:
        """Forget then introduce, one vertex at a time, from child upward."""
        current_bag = bag_from
        current = child
        for v in sorted(bag_from - bag_to, key=str):
            current_bag = current_bag - {v}
            current = add(NiceNode("forget", current_bag, vertex=v, children=(current,)))
        for v in sorted(bag_to - current_bag, key=str):
            current_bag = current_bag | {v}
            current = add(NiceNode("introduce", current_bag, vertex=v, children=(current,)))
        return current

    # iterative post-order build (graphs can be deep paths)
    built: Dict[int, int] = {}
    stack: List[Tuple[int, bool]] = [(td.root, False)]
    while stack:
        i, expanded = stack.pop()
        if not expanded:
            stack.append((i, True))
            for c in td.children[i]:
                stack.append((c, False))
            continue
        bag = td.bags[i]
        kids = td.children[i]
        if not kids:
            current = add(NiceNode("leaf", frozenset()))
            built[i] = chain_to(frozenset(), bag, current)
            continue
        sub = [chain_to(td.bags[c], bag, built[c]) for c in kids]
        current = sub[0]
        for other in sub[1:]:
            current = add(NiceNode("join", bag, children=(current, other)))
        built[i] = current

    top = built[td.root]
    # forget everything so the root bag is empty
    current = top
    bag = td.bags[td.root]
    for v in sorted(bag, key=str):
        bag = bag - {v}
        current = add(NiceNode("forget", bag, vertex=v, children=(current,)))
    return NiceTreeDecomposition(nodes, current)
