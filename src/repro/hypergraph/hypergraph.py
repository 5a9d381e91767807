"""Finite hypergraphs H = (V, E) with E a multiset of vertex sets.

The hypergraph of a query has the query's variables as vertices and one
hyperedge per atom (Section 4, "Hypergraph of a query").  Several atoms may
share the same variable set, so edges are kept as an indexed list rather
than a set; most structural notions only depend on the set of distinct
edges, and helpers expose both views.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Set,
    Tuple,
)

V = Hashable


class Hypergraph:
    """A hypergraph with vertex set ``vertices`` and an ordered list of edges.

    Isolated vertices (in no edge) are allowed and preserved.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: Iterable[V], edges: Iterable[AbstractSet[V]]):
        self.vertices: FrozenSet[V] = frozenset(vertices)
        self.edges: Tuple[FrozenSet[V], ...] = tuple(frozenset(e) for e in edges)
        for e in self.edges:
            if not e <= self.vertices:
                raise ValueError(f"edge {set(e)!r} contains vertices outside the vertex set")

    # ------------------------------------------------------------------ views

    def distinct_edges(self) -> List[FrozenSet[V]]:
        seen: Dict[FrozenSet[V], None] = {}
        for e in self.edges:
            seen.setdefault(e, None)
        return list(seen)

    def edges_containing(self, v: V) -> List[FrozenSet[V]]:
        return [e for e in self.edges if v in e]

    def incidence(self) -> Dict[V, List[int]]:
        """vertex -> indexes of edges containing it."""
        inc: Dict[V, List[int]] = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v].append(i)
        return inc

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        shown = ", ".join("{" + ",".join(map(str, sorted(e, key=str))) + "}" for e in self.edges)
        return f"Hypergraph(|V|={len(self.vertices)}, E=[{shown}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.vertices == other.vertices and sorted(
            self.edges, key=lambda e: sorted(map(str, e))
        ) == sorted(other.edges, key=lambda e: sorted(map(str, e)))

    def __hash__(self) -> int:
        return hash((self.vertices, frozenset(self.edges)))

    # -------------------------------------------------------------- induction

    def induced_by_edges(self, edge_indexes: Iterable[int]) -> "Hypergraph":
        """H[E'] — sub-hypergraph on a subset of edges; vertex set is the
        union of those edges (paper Section 4.4)."""
        chosen = [self.edges[i] for i in edge_indexes]
        verts: Set[V] = set()
        for e in chosen:
            verts |= e
        return Hypergraph(verts, chosen)

    def induced_by_vertices(self, vertex_subset: Iterable[V]) -> "Hypergraph":
        """H[V'] — restrict each edge to V', dropping emptied edges."""
        keep = frozenset(vertex_subset)
        edges = [e & keep for e in self.edges if e & keep]
        return Hypergraph(keep & self.vertices, edges)

    def with_edge(self, edge: AbstractSet[V]) -> "Hypergraph":
        """H plus one extra edge (used by the free-connex test)."""
        edge = frozenset(edge)
        return Hypergraph(self.vertices | edge, list(self.edges) + [edge])

    # ---------------------------------------------------------------- queries

    def primal_graph(self) -> Dict[V, Set[V]]:
        """Gaifman/primal graph: u ~ v iff they co-occur in some edge."""
        adj: Dict[V, Set[V]] = {v: set() for v in self.vertices}
        for e in self.edges:
            es = list(e)
            for i, u in enumerate(es):
                for w in es[i + 1:]:
                    adj[u].add(w)
                    adj[w].add(u)
        return adj

    def is_independent(self, subset: Iterable[V]) -> bool:
        """No edge contains two distinct vertices of ``subset``."""
        sub = set(subset)
        for e in self.edges:
            if len(e & sub) >= 2:
                return False
        return True

    def connected_components(self) -> List[Set[V]]:
        """Components of the primal graph (isolated vertices are singleton
        components)."""
        adj = self.primal_graph()
        seen: Set[V] = set()
        comps: List[Set[V]] = []
        for start in self.vertices:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            seen.add(start)
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        comp.add(w)
                        stack.append(w)
            comps.append(comp)
        return comps

    def is_k_uniform(self, k: int) -> bool:
        """All edges have exactly k vertices (Section 4.1.2)."""
        return all(len(e) == k for e in self.edges)
