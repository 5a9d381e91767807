"""Deciding negative conjunctive queries (Theorem 4.31).

* Boolean-domain, beta-acyclic NCQ: translate to clauses and run
  Davis-Putnam along a nest-point elimination order — quasi-linear.
* everything else: backtracking search over the domain avoiding the
  forbidden tuples (correct on all NCQs, exponential only in the query
  for bounded domains).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Set, Tuple

from repro.csp.cnf import ncq_to_clauses
from repro.csp.davis_putnam import DPStats, davis_putnam
from repro.data.database import Database
from repro.hypergraph.acyclicity import nest_point_elimination_order
from repro.logic.ncq import NegativeConjunctiveQuery
from repro.logic.terms import Constant, Variable


def decide_ncq(ncq: NegativeConjunctiveQuery, db: Database,
               stats: Optional[DPStats] = None) -> bool:
    """Is the existential closure of the NCQ true in D?

    Uses the quasi-linear nest-point Davis-Putnam route whenever the
    query is beta-acyclic and the domain is Boolean; falls back to
    backtracking otherwise.
    """
    domain = set(db.domain)
    if domain <= {0, 1}:
        order_vars = nest_point_elimination_order(ncq.hypergraph())
        if order_vars is not None:
            clauses, index = ncq_to_clauses(ncq, db)
            order = [index[v] for v in order_vars if v in index]
            return davis_putnam(clauses, order, stats=stats)
    return next(solve_negative_csp(ncq, db), None) is not None


def solve_negative_csp(ncq: NegativeConjunctiveQuery, db: Database
                       ) -> Iterator[Dict[Variable, Any]]:
    """All assignments of the NCQ's variables avoiding every forbidden
    tuple, by backtracking (most-constrained-variable-free, fixed order).
    """
    variables = list(ncq.variables())
    domain = db.domain
    # per atom: precompute the variable positions and the forbidden set
    atoms = []
    for atom in ncq.atoms:
        rel = db.relation(atom.relation)
        atoms.append((atom, rel))

    def violated(assignment: Dict[Variable, Any]) -> bool:
        for atom, rel in atoms:
            tup = []
            complete = True
            for term in atom.terms:
                if isinstance(term, Constant):
                    tup.append(term.value)
                elif term in assignment:
                    tup.append(assignment[term])
                else:
                    complete = False
                    break
            if complete and tuple(tup) in rel:
                return True
        return False

    def backtrack(i: int, assignment: Dict[Variable, Any]
                  ) -> Iterator[Dict[Variable, Any]]:
        if violated(assignment):
            return
        if i == len(variables):
            yield dict(assignment)
            return
        v = variables[i]
        for d in domain:
            assignment[v] = d
            yield from backtrack(i + 1, assignment)
        del assignment[v]

    yield from backtrack(0, {})


def ncq_answers(ncq: NegativeConjunctiveQuery, db: Database) -> Set[Tuple[Any, ...]]:
    """phi(D) for a non-Boolean NCQ (head projections of the solutions)."""
    out: Set[Tuple[Any, ...]] = set()
    for assignment in solve_negative_csp(ncq, db):
        out.add(tuple(assignment[v] for v in ncq.head))
    return out
