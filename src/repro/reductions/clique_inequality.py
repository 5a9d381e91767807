"""k-clique as an acyclic conjunctive query with inequalities
(Section 4.3, Theorem 4.15, after [Papadimitriou-Yannakakis 1999]).

Order comparisons let an *acyclic* query express a global, cyclic
property: with domain elements

    [i, j, b]  =  (i + j) n^3 + |i - j| n^2 + b n + i

and relations

    P([i,j,0], [i,j,1])  iff  (i,j) in E (self-loops added),
    R([i,j,1], [i,j',0]) for all i, j, j'   (row continuation),

the query (existential variables x_ij, y_ij for i, j in [k])

    /\\_{i,j} P(x_ij, y_ij)
    /\\_{i, j<k} R(y_ij, x_i(j+1))
    /\\_{i<j} x_ij < x_ji < y_ij

is acyclic — k disjoint P/R-paths, even the comparison graph is acyclic
— yet holds iff G has a k-clique: the arithmetic of the inequalities
forces x_ij = [v_i, v_j, 0], so every P-atom certifies an edge.
Evaluating ACQ< is therefore W[1]-complete, in sharp contrast with
ACQ!= (Theorem 4.20).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.data.database import Database
from repro.data.relation import Relation
from repro.logic.atoms import Atom, Comparison
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Variable


def encode_value(i: int, j: int, b: int, n: int) -> int:
    """[i, j, b] — injective for 0 <= i, j < n, b in {0, 1}."""
    return (i + j) * n ** 3 + abs(i - j) * n ** 2 + b * n + i


def clique_acq_lt_instance(edges: Sequence[Tuple[int, int]], n: int, k: int
                           ) -> Tuple[ConjunctiveQuery, Database]:
    """The Theorem 4.15 instance: (query, database) such that the Boolean
    query holds iff the graph ([n], edges) has a k-clique."""
    edge_set: Set[Tuple[int, int]] = set()
    for u, v in edges:
        edge_set.add((u, v))
        edge_set.add((v, u))
    for v in range(n):
        edge_set.add((v, v))  # the paper's self-loops

    p = Relation("P", 2)
    r = Relation("R", 2)
    for i in range(n):
        for j in range(n):
            if (i, j) in edge_set:
                p.add((encode_value(i, j, 0, n), encode_value(i, j, 1, n)))
            for j2 in range(n):
                r.add((encode_value(i, j, 1, n), encode_value(i, j2, 0, n)))
    db = Database([p, r])

    x: Dict[Tuple[int, int], Variable] = {}
    y: Dict[Tuple[int, int], Variable] = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            x[i, j] = Variable(f"x_{i}_{j}")
            y[i, j] = Variable(f"y_{i}_{j}")

    atoms: List[Atom] = []
    comparisons: List[Comparison] = []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            atoms.append(Atom("P", [x[i, j], y[i, j]]))
            if j < k:
                atoms.append(Atom("R", [y[i, j], x[i, j + 1]]))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            comparisons.append(Comparison(x[i, j], "<", x[j, i]))
            comparisons.append(Comparison(x[j, i], "<", y[i, j]))

    query = ConjunctiveQuery([], atoms, comparisons, name="clique")
    return query, db


def has_k_clique_bruteforce(edges: Sequence[Tuple[int, int]], n: int, k: int) -> bool:
    """Ground truth for the reduction's correctness tests."""
    from itertools import combinations

    adj: Set[Tuple[int, int]] = set()
    for u, v in edges:
        adj.add((u, v))
        adj.add((v, u))
    for cand in combinations(range(n), k):
        if all((a, b) in adj for a in cand for b in cand if a < b):
            return True
    return False
