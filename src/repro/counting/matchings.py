"""Perfect matchings and the hardness of one quantifier (Section 4.4,
Equation 2, Theorem 4.22).

The survey's point: the quantifier-free star query

    phi(x_1..x_n)  =  /\\_i E(a_i, x_i)

is counted in polynomial time (Theorem 4.21), while its one-quantifier
cousin

    psi(x_1..x_n)  =  exists t /\\_i E(a_i, x_i) /\\ E(t, x_i)

has quantified star size n, and counting relates to #PerfectMatching —
so #ACQ is #P-complete already with a single quantified variable.

This module makes the connection executable:

* :func:`count_perfect_matchings_bruteforce` — Ryser's permanent formula
  (the ground truth, 2^n terms);
* :func:`count_perfect_matchings_via_acq` — the same permanent computed
  through 2^n *oracle calls to the tractable counting problem* #ACQ^0:
  for every subset S of the right-hand side, Π_i |N(a_i) ∩ S| is
  exactly the answer count of phi on the database restricted to S.  Each
  call is polynomial (Theorem 4.21); the exponential number of calls is
  where the #P-hardness lives;
* :func:`star_query` / :func:`product_query` — the two queries of
  Equation 2 as objects, for star-size inspection and benchmarks.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Dict, List, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.logic.atoms import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Constant, Variable


def product_query(a_side: Sequence[Any], edge_name: str = "E") -> ConjunctiveQuery:
    """phi(x_1..x_n) = /\\_i E(a_i, x_i): quantifier-free, acyclic,
    free-connex (star size 0 — no quantified variables at all)."""
    head = [Variable(f"x{i}") for i in range(len(a_side))]
    atoms = [Atom(edge_name, [Constant(a), head[i]]) for i, a in enumerate(a_side)]
    return ConjunctiveQuery(head, atoms, name="phi")


def star_query(a_side: Sequence[Any], edge_name: str = "E") -> ConjunctiveQuery:
    """psi(x_1..x_n) = exists t /\\_i E(a_i, x_i) /\\ E(t, x_i): one
    quantified variable, quantified star size n (Example 4.27)."""
    head = [Variable(f"x{i}") for i in range(len(a_side))]
    t = Variable("t")
    atoms = [Atom(edge_name, [Constant(a), head[i]]) for i, a in enumerate(a_side)]
    atoms += [Atom(edge_name, [t, head[i]]) for i in range(len(a_side))]
    return ConjunctiveQuery(head, atoms, name="psi")


def _neighbourhoods(db: Database, a_side: Sequence[Any], edge_name: str = "E"
                    ) -> List[set]:
    rel = db.relation(edge_name)
    neigh: Dict[Any, set] = {a: set() for a in a_side}
    for u, v in rel:
        if u in neigh:
            neigh[u].add(v)
    return [neigh[a] for a in a_side]


def count_perfect_matchings_bruteforce(db: Database, a_side: Sequence[Any],
                                       b_side: Sequence[Any],
                                       edge_name: str = "E") -> int:
    """Ryser's formula: perm(M) = (-1)^n sum_{S<=B} (-1)^{|S|}
    prod_i |N(a_i) /\\ S|."""
    n = len(a_side)
    if n != len(b_side):
        return 0
    neigh = _neighbourhoods(db, a_side, edge_name)
    total = 0
    b_list = list(b_side)
    for r in range(n + 1):
        for subset in combinations(b_list, r):
            s = set(subset)
            prod = 1
            for nb in neigh:
                prod *= len(nb & s)
                if prod == 0:
                    break
            total += (-1) ** r * prod
    return (-1) ** n * total


def count_perfect_matchings_via_acq(db: Database, a_side: Sequence[Any],
                                    b_side: Sequence[Any],
                                    edge_name: str = "E") -> int:
    """The same permanent, with every term obtained as the answer count of
    the quantifier-free acyclic query phi on a restricted database —
    2^n calls to the Theorem 4.21 counting engine."""
    from repro.counting.acq_count import count_quantifier_free_acyclic

    n = len(a_side)
    if n != len(b_side):
        return 0
    phi = product_query(a_side, edge_name)
    rel = db.relation(edge_name)
    b_list = list(b_side)
    total = 0
    for r in range(n + 1):
        for subset in combinations(b_list, r):
            keep = set(subset)
            restricted = Relation(edge_name, 2)
            for u, v in rel:
                if v in keep:
                    restricted.add((u, v))
            sub_db = Database([restricted], domain=list(a_side) + list(subset))
            total += (-1) ** r * count_quantifier_free_acyclic(phi, sub_db)
    return (-1) ** n * total
