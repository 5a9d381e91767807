"""Conjunctive queries (paper Section 4).

A :class:`ConjunctiveQuery` represents

    phi(x) := exists y  /\\_i R_i(z_i)  /\\_j (t_j op t'_j)

with explicit, ordered free variables ``x`` (the head), relational atoms,
and optional comparison atoms (the ACQ< / ACQ!= extensions of Section 4.3).
Comparisons do not count towards the query hypergraph.

Structural predicates (acyclicity, free-connexity, star size) live in
:mod:`repro.hypergraph`; convenience methods here delegate to them.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.errors import MalformedQueryError
from repro.logic.atoms import Atom, Comparison
from repro.logic.terms import Variable, as_term


class ConjunctiveQuery:
    """An (extended) conjunctive query.

    Parameters
    ----------
    head:
        Ordered free variables.  Answers are tuples in this order.
    atoms:
        The relational atoms of the body (at least one).
    comparisons:
        Optional comparison atoms; their variables must occur in some
        relational atom (safety).
    name:
        Optional display name for the query ("Q" by default).
    """

    __slots__ = ("name", "head", "atoms", "comparisons", "_variables",
                 "_acyclic_cache", "_hash")

    def __init__(self, head: Sequence[Any], atoms: Sequence[Atom],
                 comparisons: Sequence[Comparison] = (), name: str = "Q"):
        head_vars: Dict[Variable, None] = {}     # a set, in head order
        for h in head:
            t = as_term(h)
            if not isinstance(t, Variable):
                raise MalformedQueryError(f"head terms must be variables, got {t!r}")
            if t in head_vars:
                raise MalformedQueryError(f"duplicate head variable {t!r}")
            head_vars[t] = None
        atoms = tuple(atoms)
        if not atoms:
            raise MalformedQueryError("a conjunctive query needs at least one atom")
        comparisons = tuple(comparisons)

        object.__setattr__(self, "name", name)
        object.__setattr__(self, "head", tuple(head_vars))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "comparisons", comparisons)
        object.__setattr__(self, "_acyclic_cache", None)
        object.__setattr__(self, "_hash", None)
        self._validate()

    def __setattr__(self, key: str, value: Any) -> None:
        raise AttributeError("ConjunctiveQuery is immutable")

    # ------------------------------------------------------------- validation

    def _validate(self) -> None:
        """Check arities and safety in one pass; keep the variables."""
        arities: Dict[str, int] = {}
        body: Dict[Variable, None] = {}
        for atom in self.atoms:
            terms = atom.terms
            seen = arities.setdefault(atom.relation, len(terms))
            if seen != len(terms):
                raise MalformedQueryError(
                    f"relation {atom.relation!r} used at arities {seen} and {len(terms)}"
                )
            for t in terms:
                if isinstance(t, Variable):
                    body[t] = None
        object.__setattr__(self, "_variables", tuple(body))
        for v in self.head:
            if v not in body:
                raise MalformedQueryError(f"head variable {v!r} does not occur in the body")
        for comp in self.comparisons:
            for v in comp.variables():
                if v not in body:
                    raise MalformedQueryError(
                        f"comparison variable {v!r} does not occur in any relational atom"
                    )

    # ----------------------------------------------------------- basic shape

    @property
    def arity(self) -> int:
        """Number of free variables."""
        return len(self.head)

    def is_boolean(self) -> bool:
        return not self.head

    def is_quantifier_free(self) -> bool:
        """No existentially quantified variables (CQ^0 in the paper)."""
        return not self.existential_variables()

    def variables(self) -> Tuple[Variable, ...]:
        """All variables, in order of first occurrence in the body."""
        return self._variables

    def variable_set(self) -> FrozenSet[Variable]:
        return frozenset(self.variables())

    def free_variables(self) -> FrozenSet[Variable]:
        return frozenset(self.head)

    def existential_variables(self) -> FrozenSet[Variable]:
        return self.variable_set() - self.free_variables()

    def relation_names(self) -> List[str]:
        out: Dict[str, None] = {}
        for atom in self.atoms:
            out.setdefault(atom.relation, None)
        return list(out)

    def relation_arities(self) -> Dict[str, int]:
        return {atom.relation: atom.arity for atom in self.atoms}

    def is_self_join_free(self) -> bool:
        """No relation symbol used more than once (Section 4, 'Queries')."""
        names = [a.relation for a in self.atoms]
        return len(names) == len(set(names))

    def has_comparisons(self) -> bool:
        return bool(self.comparisons)

    def disequalities(self) -> Tuple[Comparison, ...]:
        return tuple(c for c in self.comparisons if c.is_disequality())

    def order_comparisons(self) -> Tuple[Comparison, ...]:
        return tuple(c for c in self.comparisons if c.is_order_comparison())

    def size(self) -> int:
        """||phi||: number of symbols (atoms' arities + heads + comparisons)."""
        return (
            len(self.head)
            + sum(1 + a.arity for a in self.atoms)
            + 3 * len(self.comparisons)
        )

    # --------------------------------------------------------- structure (via
    # repro.hypergraph; imported lazily to avoid a package cycle)

    def hypergraph(self):
        """The query hypergraph H = (var(phi), atom(phi)) of Section 4."""
        from repro.hypergraph.hypergraph import Hypergraph

        edges = [atom.variable_set() for atom in self.atoms]
        return Hypergraph(self.variable_set(), edges)

    def is_acyclic(self) -> bool:
        """alpha-acyclicity (existence of a join tree, Section 4.1),
        computed once per query object."""
        if self._acyclic_cache is None:
            from repro.hypergraph.jointree import is_alpha_acyclic

            object.__setattr__(self, "_acyclic_cache",
                               is_alpha_acyclic(self.hypergraph()))
        return self._acyclic_cache

    def is_free_connex(self) -> bool:
        """Free-connex acyclicity (Definition 4.4)."""
        from repro.hypergraph.freeconnex import is_free_connex

        return is_free_connex(self)

    def quantified_star_size(self) -> int:
        """Quantified star size (Definition 4.26); requires acyclicity."""
        from repro.hypergraph.components import quantified_star_size

        return quantified_star_size(self)

    # ------------------------------------------------------------- rewriting

    def substitute(self, assignment: Mapping[Variable, Any]) -> "ConjunctiveQuery":
        """Instantiate some head variables with constants.

        The substituted variables disappear from the head; the body atoms
        get the corresponding constants.  This is the ``phi_a`` construction
        of Algorithm 2 (Theorem 4.3).
        """
        new_head = [v for v in self.head if v not in assignment]
        new_atoms = [a.substitute(assignment) for a in self.atoms]
        new_comps = [c.substitute(assignment) for c in self.comparisons]
        return ConjunctiveQuery(new_head, new_atoms, new_comps, name=self.name)

    def with_head(self, head: Sequence[Any]) -> "ConjunctiveQuery":
        """Same body, different head (e.g. projections psi_1 of Algorithm 2)."""
        return ConjunctiveQuery(head, self.atoms, self.comparisons, name=self.name)

    def without_comparisons(self) -> "ConjunctiveQuery":
        """The comparison-free core phi of an ACQ< / ACQ!= query."""
        return ConjunctiveQuery(self.head, self.atoms, (), name=self.name)

    def with_extra_atom(self, atom: Atom) -> "ConjunctiveQuery":
        """Append one atom (used for free-connex tests and union extensions)."""
        return ConjunctiveQuery(self.head, tuple(self.atoms) + (atom,),
                                self.comparisons, name=self.name)

    def rename_apart(self, suffix: str) -> "ConjunctiveQuery":
        """Uniformly rename all variables by appending ``suffix``."""
        mapping = {v: Variable(v.name + suffix) for v in self.variables()}

        def rename_atom(atom: Atom) -> Atom:
            return Atom(atom.relation,
                        [mapping[t] if isinstance(t, Variable) else t for t in atom.terms])

        def rename_comp(comp: Comparison) -> Comparison:
            def r(t):
                return mapping[t] if isinstance(t, Variable) else t

            return Comparison(r(comp.left), comp.op, r(comp.right))

        return ConjunctiveQuery(
            [mapping[v] for v in self.head],
            [rename_atom(a) for a in self.atoms],
            [rename_comp(c) for c in self.comparisons],
            name=self.name,
        )

    # ---------------------------------------------------------------- dunder

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConjunctiveQuery)
            and self.head == other.head
            and set(self.atoms) == set(other.atoms)
            and set(self.comparisons) == set(other.comparisons)
        )

    def __hash__(self) -> int:
        # immutable, and hashed by every plan-cache lookup: hash once
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                (self.head, frozenset(self.atoms),
                 frozenset(self.comparisons))))
        return self._hash

    def __repr__(self) -> str:
        head = ", ".join(v.name for v in self.head)
        body = ", ".join(map(repr, self.atoms))
        if self.comparisons:
            body += ", " + ", ".join(map(repr, self.comparisons))
        return f"{self.name}({head}) :- {body}"
