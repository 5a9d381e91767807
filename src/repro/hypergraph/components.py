"""S-components, S-star size and quantified star size (Definitions
4.23-4.26, Figures 2 and 3).

Given a hypergraph H = (V, E) and a set S of vertices (the free variables
of a query), the quantified vertices V - S split into connected components
of H[V - S]; each edge not fully inside S belongs to the component its
quantified part touches, and the groups of edges so obtained are the
*S-components* of H.

The *S-star size* is the maximum, over S-components, of the size of an
independent set of S-vertices of that component — how widely the free
variables are "spread" around each quantified cluster.  The *quantified
star size* of an acyclic query is the S-star size of its hypergraph for
S = free variables.  Star size 1 is equivalent to free-connexity, and the
counting problem #ACQ is solvable in time ||D||^O(star size)
(Theorem 4.28).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Sequence, Set, Tuple

from repro.hypergraph.hypergraph import Hypergraph

V = Hashable


@dataclass
class SComponent:
    """One S-component: the edges (by index) and the vertices they span."""

    edge_indexes: Tuple[int, ...]
    vertices: FrozenSet[V]
    s_vertices: FrozenSet[V]

    def subhypergraph(self, h: Hypergraph) -> Hypergraph:
        return h.induced_by_edges(self.edge_indexes)


def s_components(h: Hypergraph, s_vars: Sequence[V]) -> List[SComponent]:
    """Decompose H into S-components (Definition 4.23).

    Edges fully contained in S belong to no component (they form the
    free-only part psi_0 of the query).  Every edge with at least one
    vertex outside S belongs to exactly one component: the quantified
    vertices of an edge are pairwise connected in H[V - S] through that
    very edge, so they sit in a single connected component of H[V - S].
    """
    s = frozenset(s_vars)
    quantified = h.vertices - s
    # connected components of H[V - S] via union-find over quantified verts
    parent: Dict[V, V] = {v: v for v in quantified}

    def find(v: V) -> V:
        while parent[v] is not v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: V, b: V) -> None:
        ra, rb = find(a), find(b)
        if ra is not rb:
            parent[ra] = rb

    for e in h.edges:
        quant = [v for v in e if v not in s]
        for a, b in zip(quant, quant[1:]):
            union(a, b)

    groups: Dict[V, List[int]] = {}
    for i, e in enumerate(h.edges):
        quant = [v for v in e if v not in s]
        if not quant:
            continue  # edge fully inside S
        groups.setdefault(find(quant[0]), []).append(i)

    components: List[SComponent] = []
    for edge_indexes in groups.values():
        verts: Set[V] = set()
        for i in edge_indexes:
            verts |= h.edges[i]
        components.append(
            SComponent(tuple(edge_indexes), frozenset(verts), frozenset(verts & s))
        )
    components.sort(key=lambda c: c.edge_indexes)
    return components


def max_independent_subset(h: Hypergraph, candidates: Sequence[V]) -> FrozenSet[V]:
    """A maximum independent subset of ``candidates`` in H.

    Independence in the hypergraph sense: no edge contains two chosen
    vertices — equivalently, an independent set of the primal graph.
    Exact branch-and-bound; queries are parameter-sized so the exponent is
    bounded by the query, not the data.
    """
    cand = [v for v in candidates if v in h.vertices]
    adj = h.primal_graph()
    best: List[V] = []

    def branch(chosen: List[V], rest: List[V]) -> None:
        nonlocal best
        if len(chosen) + len(rest) <= len(best):
            return
        if not rest:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        v = rest[0]
        # include v
        branch(chosen + [v], [u for u in rest[1:] if u not in adj[v]])
        # exclude v
        branch(chosen, rest[1:])

    branch([], cand)
    return frozenset(best)


def s_star_size(h: Hypergraph, s_vars: Sequence[V]) -> int:
    """Definition 4.25: max independent set of S-vertices over S-components.

    Returns 0 when there are no S-components (e.g. a quantifier-free or
    Boolean query hypergraph).
    """
    s = frozenset(s_vars)
    best = 0
    for comp in s_components(h, s):
        sub = comp.subhypergraph(h)
        ind = max_independent_subset(sub, sorted(comp.s_vertices, key=str))
        best = max(best, len(ind))
    return best


def quantified_star_size(cq) -> int:
    """Definition 4.26: S-star size of the query hypergraph, S = free vars.

    Star size <= 1 iff the (acyclic) query is free-connex.
    """
    return s_star_size(cq.hypergraph(), cq.free_variables())


def free_cover_atoms(h: Hypergraph, component: SComponent) -> List[int]:
    """A minimum set of the component's edges covering its S-vertices.

    By conformality of acyclic hypergraphs, an S-component of star size s
    has its S-vertices covered by s edges (paper, discussion after
    Definition 4.26).  Exact search over edge subsets, smallest first —
    parameter-sized.  Counting does not build on a cover: it projects
    each component's join onto its S-vertices
    (:func:`repro.counting.acq_count.derive_counting_join`).
    """
    from itertools import combinations

    targets = component.s_vertices
    if not targets:
        return []
    idxs = list(component.edge_indexes)
    for r in range(1, len(idxs) + 1):
        for subset in combinations(idxs, r):
            covered: Set[V] = set()
            for i in subset:
                covered |= h.edges[i]
            if targets <= covered:
                return list(subset)
    raise AssertionError("component edges must cover their own S-vertices")
