"""CNF-SAT as an *alpha-acyclic* negative conjunctive query (the opening
of Section 4.5).

Negations collapse the alpha-acyclic tractability frontier: any NCQ can
be made alpha-acyclic by conjoining ``not R(all variables)`` with R
interpreted empty — the hypergraph gains a full edge (instantly
alpha-acyclic) while the semantics is untouched.  Hence SAT embeds into
alpha-acyclic NCQ evaluation, and tractability must retreat to
*beta*-acyclicity (Theorem 4.31), which the full edge does destroy.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.csp.cnf import cnf_to_ncq
from repro.data.database import Database
from repro.data.relation import Relation
from repro.logic.atoms import Atom
from repro.logic.ncq import NegativeConjunctiveQuery


def cnf_as_acyclic_ncq(clauses: Sequence[Sequence[int]], n_vars: int
                       ) -> Tuple[NegativeConjunctiveQuery, Database]:
    """The negative encoding of a CNF, *alpha-acyclified* with an empty
    full-scope relation.

    The returned query is alpha-acyclic for every input (the full edge
    absorbs everything in the GYO reduction), equivalent to the CNF, and
    beta-acyclic only when the clause structure already was — making the
    'alpha-acyclic NCQ is as hard as SAT' point executable.
    """
    ncq, db = cnf_to_ncq(clauses, n_vars)
    all_vars = list(ncq.variables())
    full = Relation("Full", len(all_vars))  # interpreted empty
    db2 = Database(list(db) + [full], domain=db.domain)
    atoms = list(ncq.atoms) + [Atom("Full", all_vars)]
    return NegativeConjunctiveQuery(ncq.head, atoms, name="sat_acyclic"), db2


def is_alpha_but_not_beta(ncq: NegativeConjunctiveQuery) -> Tuple[bool, bool]:
    """(alpha-acyclic?, beta-acyclic?) of the query hypergraph."""
    from repro.hypergraph.acyclicity import is_beta_acyclic
    from repro.hypergraph.jointree import is_alpha_acyclic

    h = ncq.hypergraph()
    return is_alpha_acyclic(h), is_beta_acyclic(h)
