"""Edge covers, fractional edge covers and the AGM output bound.

The survey's closing thread (Section 4.5) points at "new measures based
on hypergraph decompositions" governing tractability; the most basic of
these measures is the *fractional edge cover number* rho*(H): assign a
weight to every hyperedge so that each vertex is covered by total weight
>= 1, minimising the weight sum.  Atserias-Grohe-Marx: the number of
answers of a full conjunctive query is at most

    prod_i |R_i| ^ x_i        (AGM bound)

for any fractional edge cover x — so ||D||^{rho*} bounds every output,
and the triangle query's famous rho* = 3/2 explains why its output can
reach n^{1.5} while any acyclic join tree would promise at most n^2
intermediates.  Computed exactly with scipy's LP solver.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.hypergraph.hypergraph import Hypergraph

V = Hashable


def fractional_edge_cover(h: Hypergraph,
                          edge_costs: Optional[Sequence[float]] = None
                          ) -> Tuple[float, List[float]]:
    """(optimal objective, per-edge weights) via linear programming.

    With the default unit costs the objective is rho*(H); passing
    ``edge_costs = [log |R_e|]`` minimises the *AGM objective*
    sum x_e log|R_e|, whose exponential is the tightest AGM bound for the
    given relation sizes.

    Vertices in no edge make the LP infeasible; they are excluded (they
    cannot be covered and carry no join constraint).
    """
    edges = list(h.edges)
    if not edges:
        return 0.0, []
    covered = {v for e in edges for v in e}
    vertices = sorted(covered, key=str)
    if not vertices:
        return 0.0, [0.0] * len(edges)
    # minimise c . x  s.t.  for each v: sum_{e containing v} x_e >= 1
    a_ub = np.zeros((len(vertices), len(edges)))
    for i, v in enumerate(vertices):
        for j, e in enumerate(edges):
            if v in e:
                a_ub[i, j] = -1.0
    b_ub = -np.ones(len(vertices))
    c = np.ones(len(edges)) if edge_costs is None else np.array(edge_costs,
                                                                dtype=float)
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * len(edges),
                     method="highs")
    if not result.success:  # pragma: no cover - LP is always feasible here
        raise RuntimeError(f"edge cover LP failed: {result.message}")
    return float(result.fun), [float(x) for x in result.x]


def fractional_edge_cover_number(h: Hypergraph) -> float:
    """rho*(H)."""
    return fractional_edge_cover(h)[0]


def integral_edge_cover_number(h: Hypergraph) -> int:
    """rho(H): the smallest number of hyperedges covering all covered
    vertices (exact search, parameter-sized)."""
    from itertools import combinations

    edges = h.distinct_edges()
    covered = {v for e in edges for v in e}
    if not covered:
        return 0
    for r in range(1, len(edges) + 1):
        for subset in combinations(edges, r):
            if covered <= frozenset().union(*subset):
                return r
    raise AssertionError("edges must cover their own vertices")


def agm_bound(cq, db) -> float:
    """The tightest AGM bound on |phi(D)|: min over fractional edge
    covers x of prod |R_i|^{x_i}, i.e. exp of the LP with costs
    log |R_i|.  For queries with projections the bound still caps the
    number of satisfying assignments (hence of answers).
    """
    import math

    h = cq.hypergraph()
    sizes = [len(db.relation(atom.relation)) for atom in cq.atoms]
    if any(s == 0 for s in sizes):
        return 0.0  # an unsatisfiable atom: no answers at all
    costs = [math.log(s) for s in sizes]
    objective, _weights = fractional_edge_cover(h, edge_costs=costs)
    return math.exp(objective)


def agm_exponent(cq) -> float:
    """rho*(H_phi): the exponent of the worst-case output size in terms
    of the largest relation (AGM)."""
    return fractional_edge_cover_number(cq.hypergraph())
