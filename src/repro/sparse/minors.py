"""Shallow (r-)minors and clique-minor search (Definitions 3.4-3.5).

A graph H is an r-minor of G when H's vertices map to pairwise disjoint
*branch sets* S_i of G, each containing its center a_i and contained in
the radius-r ball around it (we additionally require each S_i connected,
the standard reading), with H-edges exactly where branch sets touch.

A class C is *nowhere dense* iff for every r some clique K_{N_r} is NOT
an r-minor of any member (Definition 3.5); grids are nowhere dense
(planar: no K_5 minor at any depth), cliques are somewhere dense.  The
exact search here is exponential — the notion is a structural witness,
not an algorithm the paper runs on data — and is meant for the small
instances of the tests and EXPERIMENTS.md.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Hashable, List, Optional, Set

from repro.mso.treedecomp import Graph

V = Hashable


def ball(graph: Graph, center: V, r: int) -> Set[V]:
    """N_r(center): vertices within distance r (center included)."""
    seen = {center}
    frontier = {center}
    for _ in range(r):
        nxt: Set[V] = set()
        for u in frontier:
            nxt |= graph.get(u, set())
        nxt -= seen
        if not nxt:
            break
        seen |= nxt
        frontier = nxt
    return seen


def _connected(graph: Graph, vertices: Set[V]) -> bool:
    if not vertices:
        return False
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in graph.get(u, set()):
            if w in vertices and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


def _touching(graph: Graph, a: Set[V], b: Set[V]) -> bool:
    return any(w in b for u in a for w in graph.get(u, set()))


def shallow_minor_clique(graph: Graph, k: int, r: int
                         ) -> Optional[List[Set[V]]]:
    """Branch sets witnessing K_k as an r-minor of G, or None.

    Exact backtracking: choose k centers, then assign each remaining
    ball vertex to one branch set (or none), checking connectivity,
    radius and pairwise adjacency at the leaves.  Exponential — intended
    for small witness instances.
    """
    vertices = sorted(graph, key=str)
    if k <= 0:
        return []
    for centers in combinations(vertices, k):
        balls = [ball(graph, c, r) for c in centers]
        # candidate pool: vertices in some ball, excluding the centers
        pool = sorted(
            {v for b in balls for v in b} - set(centers), key=str
        )
        assignment: Dict[V, int] = {c: i for i, c in enumerate(centers)}

        def sets_now() -> List[Set[V]]:
            out: List[Set[V]] = [set() for _ in range(k)]
            for v, i in assignment.items():
                out[i].add(v)
            return out

        def feasible_leaf() -> Optional[List[Set[V]]]:
            branch_sets = sets_now()
            for i, s in enumerate(branch_sets):
                if centers[i] not in s or not s <= balls[i]:
                    return None
                if not _connected(graph, s):
                    return None
            for i in range(k):
                for j in range(i + 1, k):
                    if not _touching(graph, branch_sets[i], branch_sets[j]):
                        return None
            return branch_sets

        def backtrack(idx: int) -> Optional[List[Set[V]]]:
            if idx == len(pool):
                return feasible_leaf()
            v = pool[idx]
            # leave v unused
            result = backtrack(idx + 1)
            if result is not None:
                return result
            for i in range(k):
                if v in balls[i]:
                    assignment[v] = i
                    result = backtrack(idx + 1)
                    del assignment[v]
                    if result is not None:
                        return result
            return None

        witness = backtrack(0)
        if witness is not None:
            return witness
    return None


def has_shallow_clique_minor(graph: Graph, k: int, r: int) -> bool:
    """K_k in G (down-arrow) r — Definition 3.4/3.5 membership test."""
    return shallow_minor_clique(graph, k, r) is not None


def clique_minor_number(graph: Graph, r: int, max_k: int) -> int:
    """The largest k <= max_k with K_k an r-minor of G (0 if none)."""
    best = 0
    for k in range(1, max_k + 1):
        if has_shallow_clique_minor(graph, k, r):
            best = k
        else:
            break
    return best
