"""Beta-acyclicity and nest-point elimination orders (Definition 4.29).

A hypergraph is *beta-acyclic* iff it is alpha-acyclic and every
sub-hypergraph (subset of its edges) is also alpha-acyclic.  The practical
characterisation used here (and by the Davis-Putnam solver of Section 4.5,
Theorem 4.31) is via *nest points* [Duris 2012]:

    a vertex v is a nest point if the set of edges containing v is
    linearly ordered by inclusion;

    H is beta-acyclic iff repeatedly removing nest points (deleting the
    vertex from every edge) empties the vertex set.

The removal order is a *nest-point elimination order*; it drives the
choice of resolution variable in the quasi-linear NCQ decision procedure.
The implementation keeps per-vertex incidence lists and only re-examines
the neighbourhood of an eliminated vertex, so chains and other shallow
structures are processed in near-linear time (the shape Theorem 4.31
needs).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

from repro.hypergraph.hypergraph import Hypergraph

V = Hashable


def _is_nest_point(v: V, incidence: Dict[V, Set[int]],
                   edges: List[Set[V]]) -> bool:
    """Edges containing v form a chain under inclusion."""
    holding = [edges[i] for i in incidence[v]]
    distinct: List[Set[V]] = []
    for e in holding:
        if all(e != d for d in distinct):
            distinct.append(e)
    distinct.sort(key=len)
    for small, big in zip(distinct, distinct[1:]):
        if not small <= big:
            return False
    return True


def nest_point_elimination_order(h: Hypergraph) -> Optional[List[V]]:
    """A nest-point elimination order of all vertices, or None if H is not
    beta-acyclic.

    Greedy correctness: removing a nest point never destroys
    beta-acyclicity, so any greedy choice succeeds iff one exists.  The
    candidate queue re-examines a vertex only when one of its edges
    changed.
    """
    edges: List[Set[V]] = [set(e) for e in h.edges]
    incidence: Dict[V, Set[int]] = {v: set() for v in h.vertices}
    for i, e in enumerate(edges):
        for v in e:
            incidence[v].add(i)

    order: List[V] = []
    # vertices in no edge can always go first
    pending: List[V] = sorted((v for v in h.vertices if not incidence[v]),
                              key=str)
    remaining: Set[V] = set(h.vertices) - set(pending)
    order.extend(pending)

    candidates: List[V] = sorted(remaining, key=str)
    in_queue: Set[V] = set(candidates)
    stuck: Set[V] = set()

    while remaining:
        if not candidates:
            if stuck:
                return None  # nobody is a nest point: not beta-acyclic
            candidates = sorted(remaining, key=str)
            in_queue = set(candidates)
        v = candidates.pop(0)
        in_queue.discard(v)
        if v not in remaining:
            continue
        if not incidence[v]:
            order.append(v)
            remaining.discard(v)
            stuck.discard(v)
            continue
        if not _is_nest_point(v, incidence, edges):
            stuck.add(v)
            if not candidates and stuck == remaining:
                return None
            continue
        # eliminate v
        order.append(v)
        remaining.discard(v)
        touched: Set[V] = set()
        for i in list(incidence[v]):
            edges[i].discard(v)
            touched |= edges[i]
        incidence[v] = set()
        # neighbours may have become nest points: re-queue them
        for u in touched:
            if u in remaining and u not in in_queue:
                candidates.append(u)
                in_queue.add(u)
            stuck.discard(u)
        stuck -= touched
    return order


def is_beta_acyclic(h: Hypergraph) -> bool:
    """Definition 4.29, decided via nest-point elimination."""
    return nest_point_elimination_order(h) is not None


def all_subhypergraphs_alpha_acyclic(h: Hypergraph) -> bool:
    """Brute-force check of Definition 4.29 (exponential — for tests only).

    Enumerates every subset of edges and tests alpha-acyclicity; agreement
    with :func:`is_beta_acyclic` is a property test of the nest-point
    characterisation.
    """
    from itertools import combinations

    from repro.hypergraph.jointree import is_alpha_acyclic

    n = len(h.edges)
    for r in range(1, n + 1):
        for subset in combinations(range(n), r):
            sub = h.induced_by_edges(subset)
            if not is_alpha_acyclic(sub):
                return False
    return True
