"""Triangles, hypercliques and cyclic-query hardness (Theorem 4.9,
Section 4.1.2).

The Hyperclique hypothesis: finding a (k)-hyperclique in a (k-1)-uniform
hypergraph needs n^{k - o(1)}; for k = 3 this is triangle finding in
O(n^2) being impossible.  [Brault-Baron 2013] shows that, under it, no
*cyclic* CQ is enumerable with linear preprocessing and constant delay —
closing the Theorem 4.9 dichotomy.  This module supplies the objects the
benchmarks exercise: the triangle query (the smallest cyclic CQ),
brute-force triangle/hyperclique finders, and instance generators.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.data.database import Database
from repro.logic.cq import ConjunctiveQuery
from repro.logic.parser import parse_cq

V = Hashable


def triangle_query() -> ConjunctiveQuery:
    """Q(x, y, z) = E(x, y) /\\ E(y, z) /\\ E(z, x) — the canonical cyclic
    CQ (Example 4.1's phi_2)."""
    return parse_cq("Q(x, y, z) :- E(x, y), E(y, z), E(z, x)")


def boolean_triangle_query() -> ConjunctiveQuery:
    """The Boolean version: does the graph contain a triangle?"""
    return parse_cq("Q() :- E(x, y), E(y, z), E(z, x)")


def tetrahedron_query() -> ConjunctiveQuery:
    """phi_3 of Example 4.1: the triangle plus a covering ternary atom —
    acyclic again (its join tree roots at {x, y, z})."""
    return parse_cq("Q(x, y, z) :- E(x, y), E(y, z), E(z, x), T(x, y, z)")


def find_triangle(adjacency: Dict[V, Set[V]]) -> Optional[Tuple[V, V, V]]:
    """First triangle found, scanning edges and intersecting
    neighbourhoods (O(sum_e min-degree))."""
    for u in adjacency:
        for w in adjacency[u]:
            if str(w) <= str(u):
                continue
            common = adjacency[u] & adjacency[w]
            for x in common:
                if x != u and x != w:
                    return (u, w, x)
    return None


def count_triangles(adjacency: Dict[V, Set[V]]) -> int:
    """Number of triangles (each counted once)."""
    total = 0
    for u in adjacency:
        for w in adjacency[u]:
            total += len(adjacency[u] & adjacency[w])
    # each triangle counted once per ordered edge pair: 6 times
    return total // 6


def find_hyperclique(edges: Iterable[FrozenSet[V]], k: int
                     ) -> Optional[FrozenSet[V]]:
    """A k-vertex set all of whose (k-1)-subsets are hyperedges of the
    given (k-1)-uniform hypergraph, or None (brute force with pruning)."""
    edge_set = {frozenset(e) for e in edges}
    arity = k - 1
    for e in edge_set:
        if len(e) != arity:
            raise ValueError(f"hypergraph is not {arity}-uniform: edge {set(e)}")
    vertices = sorted({v for e in edge_set for v in e}, key=str)
    for candidate in combinations(vertices, k):
        cand = frozenset(candidate)
        if all(frozenset(sub) in edge_set for sub in combinations(candidate, arity)):
            return cand
    return None


def random_uniform_hypergraph(n: int, arity: int, density: float,
                              seed: Optional[int] = None) -> List[FrozenSet[int]]:
    """Random (arity)-uniform hypergraph on [n] with edge probability
    ``density``."""
    rng = random.Random(seed)
    return [
        frozenset(c)
        for c in combinations(range(n), arity)
        if rng.random() < density
    ]


def tripartite_triangle_database(n: int, density: float,
                                 seed: Optional[int] = None) -> Database:
    """A tripartite graph database for the triangle query: triangles only
    across the three parts, so the count is controllable."""
    from repro.data.relation import Relation

    rng = random.Random(seed)
    rel = Relation("E", 2)
    parts = [[("p", k, i) for i in range(n)] for k in range(3)]
    for k in range(3):
        for u in parts[k]:
            for w in parts[(k + 1) % 3]:
                if rng.random() < density:
                    rel.add((u, w))
                    rel.add((w, u))
    db = Database([rel])
    for part in parts:
        db.add_domain_values(part)
    return db
