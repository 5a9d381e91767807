"""Baseline (naive) evaluation.

Two engines, both exact on their whole fragment and used as ground truth:

* :func:`evaluate_cq_naive` — backtracking join for conjunctive queries
  (with comparisons).  Worst case ``||D||^{#atoms}``; a greedy
  most-bound-first atom order keeps typical instances fast.
* :func:`evaluate_fo` / :func:`model_check_fo` — structural recursion for
  full FO, cost ``||D||^{quantifier depth}`` — the generic
  ``||phi|| * ||D||^h`` upper bound the paper recalls at the start of
  Section 3.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.data.database import Database
from repro.errors import UnsupportedQueryError
from repro.logic.atoms import Atom, Comparison
from repro.logic.cq import ConjunctiveQuery
from repro.logic.fo import (
    And,
    CompareAtom,
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
    RelAtom,
    SOAtom,
)
from repro.logic.terms import Constant, Variable

Assignment = Dict[Variable, Any]


# ------------------------------------------------------------------ CQ engine


def _atom_order(cq: ConjunctiveQuery, db: Database) -> List[Atom]:
    """Greedy join order: repeatedly pick the atom sharing most variables
    with those already placed, tie-break on smaller relation."""
    remaining = list(cq.atoms)
    ordered: List[Atom] = []
    bound: Set[Variable] = set()
    while remaining:
        def score(atom: Atom) -> Tuple[int, int]:
            vs = atom.variable_set()
            return (-len(vs & bound), len(db.relation(atom.relation)))

        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variable_set()
    return ordered


def satisfying_assignments(cq: ConjunctiveQuery, db: Database) -> Iterator[Assignment]:
    """All assignments of *all* variables satisfying the body (no
    projection, duplicates by construction impossible)."""
    yield from _backtrack(_atom_order(cq, db), db, 0, {},
                          list(cq.comparisons))


def _comparisons_ready(assignment: Assignment, pending: List[Comparison]
                       ) -> Optional[List[Comparison]]:
    """Evaluate comparisons whose variables are all bound; None = failed."""
    still: List[Comparison] = []
    for comp in pending:
        if all(v in assignment for v in comp.variables()):
            if not comp.evaluate(assignment):
                return None
        else:
            still.append(comp)
    return still


def _backtrack(ordered: List[Atom], db: Database, i: int,
               assignment: Assignment, pending: List[Comparison]
               ) -> Iterator[Assignment]:
    """Extend ``assignment`` through ``ordered[i:]``.  A module-level
    function, like the FO recursion below: a nested one would reach
    itself, and ``db``, through its own closure, a cycle that keeps the
    database alive until a garbage collection."""
    if i == len(ordered):
        yield dict(assignment)
        return
    atom = ordered[i]
    rel = db.relation(atom.relation)
    bound_positions: List[int] = []
    key: List[Any] = []
    for pos, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            bound_positions.append(pos)
            key.append(term.value)
        elif term in assignment:
            bound_positions.append(pos)
            key.append(assignment[term])
    for t in rel.probe(bound_positions, key) if bound_positions else rel:
        if not atom.matches(t):
            continue
        binding = atom.bind(t)
        new_vars = [v for v in binding if v not in assignment]
        assignment.update({v: binding[v] for v in new_vars})
        next_pending = _comparisons_ready(assignment, pending)
        if next_pending is not None:
            yield from _backtrack(ordered, db, i + 1, assignment,
                                  next_pending)
        for v in new_vars:
            del assignment[v]


def evaluate_cq_naive(cq: ConjunctiveQuery, db: Database) -> Set[Tuple[Any, ...]]:
    """phi(D) as a set of head tuples, by exhaustive backtracking."""
    out: Set[Tuple[Any, ...]] = set()
    for assignment in satisfying_assignments(cq, db):
        out.add(tuple(assignment[v] for v in cq.head))
    return out


def cq_is_satisfiable_naive(cq: ConjunctiveQuery, db: Database) -> bool:
    """Boolean answering by backtracking (stops at the first witness)."""
    for _ in satisfying_assignments(cq, db):
        return True
    return False


# ------------------------------------------------------------------ FO engine


SOAssignment = Dict[Any, Set[Tuple[Any, ...]]]


def evaluate_fo(formula: Formula, db: Database,
                assignment: Optional[Assignment] = None,
                so_assignment: Optional[SOAssignment] = None) -> bool:
    """Truth of ``formula`` under a total assignment of its free variables.

    ``so_assignment`` maps each free second-order variable to a set of
    tuples.  Cost is ``O(||D||^q)`` with q the quantifier depth.
    """
    return _holds(formula, db, assignment or {}, so_assignment or {})


def _value(term, assignment: Assignment) -> Any:
    if isinstance(term, Constant):
        return term.value
    if term not in assignment:
        raise UnsupportedQueryError(f"unbound variable {term!r} in FO evaluation")
    return assignment[term]


def _holds(f: Formula, db: Database, assignment: Assignment,
           so_assignment: SOAssignment) -> bool:
    """:func:`evaluate_fo`'s structural recursion."""
    if isinstance(f, RelAtom):
        rel = db.relation(f.atom.relation)
        return tuple(_value(t, assignment) for t in f.atom.terms) in rel
    if isinstance(f, CompareAtom):
        return f.comparison.evaluate(
            {v: assignment[v] for v in f.comparison.variables()}
        )
    if isinstance(f, SOAtom):
        interp = so_assignment.get(f.so_var)
        if interp is None:
            raise UnsupportedQueryError(
                f"free second-order variable {f.so_var!r} has no interpretation"
            )
        return tuple(_value(t, assignment) for t in f.terms) in interp
    if isinstance(f, Not):
        return not _holds(f.child, db, assignment, so_assignment)
    if isinstance(f, And):
        return all(_holds(c, db, assignment, so_assignment)
                   for c in f.operands)
    if isinstance(f, Or):
        return any(_holds(c, db, assignment, so_assignment)
                   for c in f.operands)
    if isinstance(f, (Exists, ForAll)):
        return _quantified(f, 0, db.domain, db, assignment, so_assignment)
    raise UnsupportedQueryError(f"unknown FO node {f!r}")


def _quantified(f: Formula, i: int, domain: List[Any], db: Database,
                assignment: Assignment, so_assignment: SOAssignment) -> bool:
    """Quantifier block ``f`` from its ``i``-th variable on: the
    variable takes each domain value in turn, up to the first witness
    (``Exists``) or counterexample (``ForAll``), and gets its earlier
    value back after."""
    if i == len(f.variables):
        return _holds(f.child, db, assignment, so_assignment)
    v = f.variables[i]
    previous = assignment.get(v, _MISSING)
    decisive = isinstance(f, Exists)    # the child value that decides
    result = not decisive
    for d in domain:
        assignment[v] = d
        if bool(_quantified(f, i + 1, domain, db, assignment,
                            so_assignment)) is decisive:
            result = decisive
            break
    if previous is _MISSING:
        assignment.pop(v, None)
    else:
        assignment[v] = previous
    return result


_MISSING = object()


def model_check_fo(formula: Formula, db: Database,
                   so_assignment: Optional[SOAssignment] = None) -> bool:
    """D |= phi for a sentence (no free FO variables)."""
    if formula.free_variables():
        raise UnsupportedQueryError(
            f"model checking needs a sentence; free variables: "
            f"{sorted(v.name for v in formula.free_variables())}"
        )
    return evaluate_fo(formula, db, {}, so_assignment)


def fo_answers(formula: Formula, db: Database,
               head: Optional[Sequence[Variable]] = None,
               so_assignment: Optional[SOAssignment] = None
               ) -> Set[Tuple[Any, ...]]:
    """phi(D) for a formula with free first-order variables, by brute
    force over the domain (||D||^{#free} candidates)."""
    free = sorted(formula.free_variables(), key=lambda v: v.name) if head is None else list(head)
    out: Set[Tuple[Any, ...]] = set()
    for values in product(db.domain, repeat=len(free)):
        current = dict(zip(free, values))
        if evaluate_fo(formula, db, current, so_assignment):
            out.add(tuple(current[v] for v in free))
    return out
