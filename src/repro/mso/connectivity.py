"""Connectivity over bounded treewidth: counting/deciding *connected*
vertex sets.

Connectivity is the canonical MSO property whose tree-decomposition DP
needs *partition* states (which blocks of the bag's chosen vertices are
already connected below) rather than independent per-vertex labels — so
it lives outside the :class:`~repro.mso.courcelle.PropertySpec` interface
and gets its own dynamic program here.  It rounds out the Section 3.3
reproduction with a property of genuinely different state complexity
(Bell-number-many states per bag instead of labels^|bag|).

State: (partition of the in-solution bag vertices into connectivity
blocks, done) where ``done`` records that one connected component has
already been completed (closed off by forgetting its last vertex); any
later solution vertex would make the set disconnected.

``count_connected_sets`` counts the *non-empty* connected vertex sets;
``largest_connected_set`` maximises their size (with graphs' max
connected induced subgraph = its largest connected component, a handy
cross-check).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.mso.treedecomp import (
    Graph,
    NiceTreeDecomposition,
    make_nice,
    tree_decomposition,
)

V = Hashable
# partition: frozenset of frozensets of bag vertices; done: bool
State = Tuple[FrozenSet[FrozenSet[V]], bool]


def _merge_with(partition: FrozenSet[FrozenSet[V]], vertex: V,
                neighbours: List[V]) -> FrozenSet[FrozenSet[V]]:
    """Add ``vertex``, merging every block containing one of its
    in-solution bag neighbours."""
    merged = {vertex}
    rest = []
    neighbour_set = set(neighbours)
    for block in partition:
        if block & neighbour_set:
            merged |= block
        else:
            rest.append(block)
    return frozenset(rest + [frozenset(merged)])


def _blocks_of(partition: FrozenSet[FrozenSet[V]]) -> Dict[V, FrozenSet[V]]:
    out: Dict[V, FrozenSet[V]] = {}
    for block in partition:
        for v in block:
            out[v] = block
    return out


def _join_partitions(left: FrozenSet[FrozenSet[V]],
                     right: FrozenSet[FrozenSet[V]]
                     ) -> FrozenSet[FrozenSet[V]]:
    """The finest partition coarser than both (union-find merge)."""
    parent: Dict[V, V] = {}

    def find(v: V) -> V:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for partition in (left, right):
        for block in partition:
            items = list(block)
            for v in items:
                parent.setdefault(v, v)
            for a, b in zip(items, items[1:]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    groups: Dict[V, set] = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return frozenset(frozenset(g) for g in groups.values())


def _in_vertices(partition: FrozenSet[FrozenSet[V]]) -> FrozenSet[V]:
    out: set = set()
    for block in partition:
        out |= block
    return frozenset(out)


def connected_sets_dp(graph: Graph,
                      nice: Optional[NiceTreeDecomposition] = None
                      ) -> Dict[State, Tuple[int, int]]:
    """The root table: state -> (count, max size) over non-empty partial
    solutions; the accepting states at the (empty-bag) root are
    ({}, done=True)."""
    if nice is None:
        nice = make_nice(tree_decomposition(graph))
    tables: List[Dict[State, Tuple[int, int]]] = [dict() for _ in nice.nodes]

    def bump(table: Dict[State, Tuple[int, int]], state: State,
             count: int, size: int) -> None:
        old = table.get(state)
        if old is None:
            table[state] = (count, size)
        else:
            table[state] = (old[0] + count, max(old[1], size))

    for i in nice.bottom_up():
        node = nice.nodes[i]
        table: Dict[State, Tuple[int, int]] = {}
        if node.kind == "leaf":
            table[(frozenset(), False)] = (1, 0)
        elif node.kind == "introduce":
            child = tables[node.children[0]]
            v = node.vertex
            neighbours = [u for u in graph.get(v, ()) if u in node.bag and u != v]
            for (partition, done), (count, size) in child.items():
                # v stays out
                bump(table, (partition, done), count, size)
                # v joins the solution (not allowed once a component closed)
                if not done:
                    in_neigh = [u for u in neighbours
                                if any(u in b for b in partition)]
                    new_partition = _merge_with(partition, v, in_neigh)
                    bump(table, (new_partition, False), count, size + 1)
        elif node.kind == "forget":
            child = tables[node.children[0]]
            v = node.vertex
            for (partition, done), (count, size) in child.items():
                blocks = _blocks_of(partition)
                if v not in blocks:
                    bump(table, (partition, done), count, size)
                    continue
                block = blocks[v]
                if len(block) > 1:
                    rest = frozenset(
                        b if b is not block else frozenset(block - {v})
                        for b in partition)
                    bump(table, (rest, done), count, size)
                else:
                    # v's block closes; valid only if it was the only one
                    if len(partition) == 1:
                        bump(table, (frozenset(), True), count, size)
                    # else: a permanently disconnected block -> reject
        elif node.kind == "join":
            left = tables[node.children[0]]
            right = tables[node.children[1]]
            for (lp, ld), (lc, ls) in left.items():
                lin = _in_vertices(lp)
                for (rp, rd), (rc, rs) in right.items():
                    if _in_vertices(rp) != lin:
                        continue
                    if ld and rd:
                        continue  # two completed components
                    if (ld or rd) and lin:
                        continue  # a completed component plus live blocks
                    merged = _join_partitions(lp, rp)
                    bump(table, (merged, ld or rd),
                         lc * rc, ls + rs - len(lin))
        else:  # pragma: no cover
            raise ValueError(node.kind)
        tables[i] = table
    return tables[nice.root]


def count_connected_sets(graph: Graph) -> int:
    """Number of non-empty vertex sets inducing a connected subgraph."""
    root = connected_sets_dp(graph)
    return sum(count for (partition, done), (count, _size) in root.items()
               if done and not partition)


def largest_connected_set(graph: Graph) -> int:
    """Maximum size of a connected vertex set (= size of the largest
    connected component of the graph)."""
    root = connected_sets_dp(graph)
    sizes = [size for (partition, done), (_count, size) in root.items()
             if done and not partition]
    return max(sizes, default=0)


def has_connected_set_of_size(graph: Graph, k: int) -> bool:
    """Is there a connected vertex set with at least k vertices?"""
    return largest_connected_set(graph) >= k
