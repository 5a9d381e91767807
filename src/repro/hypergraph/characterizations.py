"""Alternative characterisations of alpha-acyclicity (Section 4.1's
"admitting a number of alternative characterizations", after
[Beeri-Fagin-Maier-Yannakakis 1983]):

    H is alpha-acyclic  iff  H is conformal and its primal graph is
    chordal.

* conformal: every clique of the primal (Gaifman) graph is contained in
  some hyperedge;
* chordal: every cycle of length >= 4 in the primal graph has a chord
  (tested via a perfect elimination ordering, maximum-cardinality
  search).

These are exported both as standalone graph-theory utilities and as a
cross-check of the GYO reduction — a property test asserts the
equivalence on random hypergraphs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Set

from repro.hypergraph.hypergraph import Hypergraph

V = Hashable


def maximal_cliques(adjacency: Dict[V, Set[V]]) -> List[FrozenSet[V]]:
    """Bron-Kerbosch with pivoting (fine for query-sized graphs)."""
    cliques: List[FrozenSet[V]] = []

    def expand(r: Set[V], p: Set[V], x: Set[V]) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot_pool = p | x
        pivot = max(pivot_pool, key=lambda u: len(adjacency[u] & p))
        for v in list(p - adjacency[pivot]):
            expand(r | {v}, p & adjacency[v], x & adjacency[v])
            p.discard(v)
            x.add(v)

    expand(set(), set(adjacency), set())
    return cliques


def is_conformal(h: Hypergraph) -> bool:
    """Every maximal clique of the primal graph lies inside a hyperedge."""
    adjacency = h.primal_graph()
    edges = h.distinct_edges()
    for clique in maximal_cliques(adjacency):
        if len(clique) <= 1:
            continue
        if not any(clique <= e for e in edges):
            return False
    return True


def perfect_elimination_ordering(adjacency: Dict[V, Set[V]]
                                 ) -> Optional[List[V]]:
    """A perfect elimination ordering via maximum-cardinality search, or
    None when the graph is not chordal."""
    order: List[V] = []
    weight: Dict[V, int] = {v: 0 for v in adjacency}
    remaining: Set[V] = set(adjacency)
    while remaining:
        v = max(sorted(remaining, key=str), key=lambda u: weight[u])
        order.append(v)
        remaining.discard(v)
        for u in adjacency[v]:
            if u in remaining:
                weight[u] += 1
    order.reverse()
    position = {v: i for i, v in enumerate(order)}
    # verify: later neighbours of each vertex form a clique
    for i, v in enumerate(order):
        later = [u for u in adjacency[v] if position[u] > i]
        if not later:
            continue
        first = min(later, key=lambda u: position[u])
        rest = set(later) - {first}
        if not rest <= adjacency[first] | {first}:
            return None
    return order


def is_chordal(adjacency: Dict[V, Set[V]]) -> bool:
    """Every cycle of length >= 4 has a chord (via a PEO)."""
    return perfect_elimination_ordering(adjacency) is not None


def is_alpha_acyclic_bfmy(h: Hypergraph) -> bool:
    """The Beeri-Fagin-Maier-Yannakakis characterisation: conformal and
    chordal primal graph.  Must agree with the GYO reduction on every
    hypergraph (property-tested)."""
    return is_conformal(h) and is_chordal(h.primal_graph())
