"""CNF clauses and the negative encoding of Section 4.5.

A clause is a frozenset of integer literals over variables 1..n
(``v`` positive, ``-v`` negated).  The paper's observation: over the
Boolean domain, the negated atom ``not R(x_1..x_k)`` with
R = {(b_1..b_k)} is the clause ruling out exactly that assignment, i.e.
``\\/_i (x_i != b_i)``; a whole CNF is an NCQ whose relations hold one
tuple per clause.  :func:`ncq_to_clauses` generalises to relations with
several tuples (one clause per forbidden tuple) and repeated variables.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.data.database import Database
from repro.errors import UnsupportedQueryError
from repro.logic.ncq import NegativeConjunctiveQuery
from repro.logic.terms import Constant, Variable

Clause = FrozenSet[int]


def clause(*literals: int) -> Clause:
    """Build a clause from integer literals (v positive, -v negated)."""
    return frozenset(literals)


def is_tautology(c: Clause) -> bool:
    """A clause containing both v and -v is always satisfied."""
    return any(-lit in c for lit in c)


def clauses_satisfiable_bruteforce(clauses: Sequence[Clause], n_vars: int) -> bool:
    """Ground truth for small instances."""
    for bits in iproduct((False, True), repeat=n_vars):
        if all(
            any((lit > 0) == bits[abs(lit) - 1] for lit in c)
            for c in clauses
        ):
            return True
    return False


def cnf_to_ncq(clauses: Sequence[Sequence[int]], n_vars: int
               ) -> Tuple[NegativeConjunctiveQuery, Database]:
    """The negative encoding: one relation R_j = {forbidden tuple} per
    clause, over domain {0, 1} (Section 4.5's opening example)."""
    from repro.data.relation import Relation
    from repro.logic.atoms import Atom

    atoms = []
    relations = []
    for j, cl in enumerate(clauses):
        variables = [Variable(f"x{abs(lit)}") for lit in cl]
        forbidden = tuple(0 if lit > 0 else 1 for lit in cl)
        rel = Relation(f"C{j}", len(cl))
        rel.add(forbidden)
        relations.append(rel)
        atoms.append(Atom(f"C{j}", variables))
    db = Database(relations, domain=[0, 1])
    ncq = NegativeConjunctiveQuery([], atoms, name="sat")
    return ncq, db


def ncq_to_clauses(ncq: NegativeConjunctiveQuery, db: Database
                   ) -> Tuple[List[Clause], Dict[Variable, int]]:
    """Translate a Boolean-domain NCQ decision problem into CNF.

    Requires Dom(D) <= {0, 1}.  Each forbidden tuple of each negated atom
    becomes one clause; tuples inconsistent with the atom's repeated
    variables or constants are skipped (they forbid nothing).
    """
    domain = set(db.domain)
    if not domain <= {0, 1}:
        raise UnsupportedQueryError(
            "the clause translation needs the Boolean domain {0, 1}"
        )
    variables = list(ncq.variables())
    index = {v: i + 1 for i, v in enumerate(variables)}
    clauses: List[Clause] = []
    for atom in ncq.atoms:
        rel = db.relation(atom.relation)
        for tup in rel:
            lits: Set[int] = set()
            consistent = True
            seen: Dict[Variable, int] = {}
            for term, value in zip(atom.terms, tup):
                if isinstance(term, Constant):
                    if term.value != value:
                        consistent = False
                        break
                    continue
                if term in seen:
                    if seen[term] != value:
                        consistent = False
                        break
                    continue
                seen[term] = value
                # the clause says "differ from the forbidden tuple somewhere":
                # forbidden value 0 -> literal x (x must be 1 to differ here)
                lits.add(index[term] if value == 0 else -index[term])
            if not consistent:
                continue
            if not lits:
                # the atom forbids a fully-constant tuple that is present:
                # the query is unsatisfiable -> empty clause
                return [frozenset()], index
            clauses.append(frozenset(lits))
    return clauses, index
