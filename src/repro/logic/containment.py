"""Conjunctive-query containment, equivalence and cores (Chandra-Merlin).

The paper's introduction anchors the whole story on [Chandra-Merlin
1977]: evaluating Boolean CQs is NP-complete because it *is* the
homomorphism problem.  The same machinery gives static analysis:

* q1 is contained in q2  iff  there is a homomorphism from q2 to q1
  mapping head to head (the canonical-database argument);
* equivalence = containment both ways;
* every CQ has a unique (up to isomorphism) minimal equivalent
  subquery, its *core* — computing it removes redundant atoms, which
  matters here because structural parameters (acyclicity, free-connex,
  star size) are not invariant under redundancy: a query can be
  classified hard while its core is easy (see
  :func:`classify_up_to_equivalence`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.logic.atoms import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Constant, Term, Variable


def homomorphisms(src: ConjunctiveQuery, dst: ConjunctiveQuery,
                  require_head: bool = True
                  ) -> Iterator[Dict[Variable, Term]]:
    """All homomorphisms h : var(src) -> term(dst) with R(z) in src
    implying R(h(z)) in dst; with ``require_head`` the i-th head variable
    of src must map to the i-th head variable of dst."""
    if src.has_comparisons() or dst.has_comparisons():
        raise ValueError("containment machinery handles comparison-free CQs")
    dst_by_relation: Dict[str, List[Atom]] = {}
    for atom in dst.atoms:
        dst_by_relation.setdefault(atom.relation, []).append(atom)

    base: Dict[Variable, Term] = {}
    if require_head:
        if src.arity != dst.arity:
            return
        for sv, dv in zip(src.head, dst.head):
            if sv in base and base[sv] is not dv:
                return
            base[sv] = dv

    src_atoms = list(src.atoms)

    def extend(i: int, mapping: Dict[Variable, Term]
               ) -> Iterator[Dict[Variable, Term]]:
        if i == len(src_atoms):
            yield dict(mapping)
            return
        atom = src_atoms[i]
        for candidate in dst_by_relation.get(atom.relation, []):
            if candidate.arity != atom.arity:
                continue
            added: List[Variable] = []
            ok = True
            for s_term, d_term in zip(atom.terms, candidate.terms):
                if isinstance(s_term, Constant):
                    if s_term != d_term:
                        ok = False
                        break
                    continue
                bound = mapping.get(s_term)
                if bound is None:
                    mapping[s_term] = d_term
                    added.append(s_term)
                elif bound != d_term and bound is not d_term:
                    ok = False
                    break
            if ok:
                yield from extend(i + 1, mapping)
            for v in added:
                del mapping[v]

    yield from extend(0, dict(base))


def has_homomorphism(src: ConjunctiveQuery, dst: ConjunctiveQuery,
                     require_head: bool = True) -> bool:
    """Does at least one (head-fixing) homomorphism src -> dst exist?"""
    return next(homomorphisms(src, dst, require_head), None) is not None


def is_contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """q1(D) <= q2(D) for every database D  iff  q2 -> q1 homomorphically
    (head to head)."""
    return has_homomorphism(q2, q1, require_head=True)


def are_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Semantic equivalence: containment in both directions."""
    return is_contained_in(q1, q2) and is_contained_in(q2, q1)


def core(cq: ConjunctiveQuery) -> ConjunctiveQuery:
    """The core: a minimal equivalent subquery.

    Folding approach: repeatedly look for an endomorphism (head-fixing
    homomorphism of the query into itself) whose atom image is a proper
    subset of the atoms, and restrict to the image; stop at a fixpoint.
    """
    current = cq
    while True:
        atoms = list(current.atoms)
        atom_set = set(atoms)
        improved = False
        for h in homomorphisms(current, current, require_head=True):
            image = {a.substitute({}) for a in
                     (_apply(h, a) for a in atoms)}
            if image < atom_set:
                head = current.head
                current = ConjunctiveQuery(head, sorted(image, key=repr),
                                           name=current.name)
                improved = True
                break
        if not improved:
            return current


def _apply(h: Dict[Variable, Term], atom: Atom) -> Atom:
    terms = [h.get(t, t) if isinstance(t, Variable) else t for t in atom.terms]
    return Atom(atom.relation, terms)


def is_minimal(cq: ConjunctiveQuery) -> bool:
    """Is the query its own core (no redundant atoms)?"""
    return len(core(cq).atoms) == len(cq.atoms)


def classify_up_to_equivalence(cq: ConjunctiveQuery):
    """Classify the *core* of the query: structural parameters are not
    invariant under redundant atoms, so classification should be applied
    to the minimal equivalent query.

    Returns (core query, its ComplexityReport)."""
    from repro.core.classify import classify

    minimal = core(cq)
    return minimal, classify(minimal)
