"""Union extensions for UCQs (Section 4.2, Definitions 4.11-4.12).

A disjunct phi_1 of a union may fail to be free-connex and still be
efficiently enumerable, because another disjunct phi_2 *provides* some of
its variables (Definition 4.11): a body homomorphism h from phi_2 to phi_1
whose relevant preimages are free in phi_2 and S-connex there.  Adding a
fresh atom P(V_1) over the provided variables yields a *union extension*
phi_1^+ which may be free-connex (Definition 4.12); semantically P is
interpreted by the S-projection of phi_2's answers transported along h, so
phi_1^+ is equivalent to phi_1 on every database — Equation (1) of the
paper is the canonical example.

This module finds body homomorphisms, provided variable sets (with their
provenance) and free-connex union extensions; the enumerator in
:mod:`repro.enumeration.ucq_union` materialises the fresh relations and
runs the constant-delay free-connex engine on the extended disjuncts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.logic.atoms import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Constant, Variable
from repro.logic.ucq import UnionOfConjunctiveQueries
from repro.hypergraph.freeconnex import is_free_connex, is_s_connex


def body_homomorphisms(src: ConjunctiveQuery, dst: ConjunctiveQuery
                       ) -> Iterator[Dict[Variable, Variable]]:
    """All body homomorphisms h : var(src) -> var(dst).

    h must map every atom R(z) of ``src`` onto an atom R(h(z)) of ``dst``
    (constants must match exactly).  Backtracking over the atoms of src;
    the search space is parameter-sized (query sizes only).
    """
    dst_by_relation: Dict[str, List[Atom]] = {}
    for atom in dst.atoms:
        dst_by_relation.setdefault(atom.relation, []).append(atom)

    src_atoms = list(src.atoms)

    def extend(i: int, mapping: Dict[Variable, Variable]) -> Iterator[Dict[Variable, Variable]]:
        if i == len(src_atoms):
            yield dict(mapping)
            return
        atom = src_atoms[i]
        for candidate in dst_by_relation.get(atom.relation, []):
            if candidate.arity != atom.arity:
                continue
            new_bindings: List[Variable] = []
            ok = True
            for s_term, d_term in zip(atom.terms, candidate.terms):
                if isinstance(s_term, Constant):
                    if s_term != d_term:
                        ok = False
                        break
                    continue
                if isinstance(d_term, Constant):
                    ok = False  # variables must map to variables
                    break
                bound = mapping.get(s_term)
                if bound is None:
                    mapping[s_term] = d_term
                    new_bindings.append(s_term)
                elif bound is not d_term:
                    ok = False
                    break
            if ok:
                yield from extend(i + 1, mapping)
            for v in new_bindings:
                del mapping[v]

    yield from extend(0, {})


@dataclass(frozen=True)
class ProvidedSet:
    """A provided variable set with its provenance.

    Attributes
    ----------
    variables:
        V_1 subset of var(target), in a deterministic order.
    provider_index:
        Which disjunct of the union provides it.
    homomorphism:
        The body homomorphism h : var(provider) -> var(target).
    s_vars:
        The S with h^{-1}(V_1) <= S <= free(provider), provider S-connex.
    """

    variables: Tuple[Variable, ...]
    provider_index: int
    homomorphism: Tuple[Tuple[Variable, Variable], ...]
    s_vars: FrozenSet[Variable]
    # True when the provider is the (already resolved) union extension of
    # disjunct provider_index rather than the original disjunct — the
    # recursive clause of Definition 4.12.  Drives materialisation order.
    from_extension: bool = False

    def hom_dict(self) -> Dict[Variable, Variable]:
        return dict(self.homomorphism)


def provided_sets(provider: ConjunctiveQuery, provider_index: int,
                  target: ConjunctiveQuery,
                  from_extension: bool = False) -> List[ProvidedSet]:
    """All maximal variable sets ``provider`` provides to ``target``.

    For each body homomorphism h and each S <= free(provider) with the
    provider S-connex, the set V_1 = h(S) is provided when no quantified
    variable of the provider maps into it.  Subsets of a provided set are
    provided too (shrink S), so only the sets arising from maximal valid S
    are returned.
    """
    free = sorted(provider.free_variables(), key=lambda v: v.name)
    quantified = provider.existential_variables()
    results: Dict[Tuple[Variable, ...], ProvidedSet] = {}
    for hom in body_homomorphisms(provider, target):
        # iterate subsets of free variables, larger first, keeping maximal
        for r in range(len(free), 0, -1):
            for subset in combinations(free, r):
                s = frozenset(subset)
                image = frozenset(hom[v] for v in s)
                # h^{-1}(V_1) must avoid quantified provider variables
                if any(hom[q] in image for q in quantified):
                    continue
                if not is_s_connex(provider, s):
                    continue
                key = tuple(sorted(image, key=lambda v: v.name))
                if key not in results:
                    results[key] = ProvidedSet(
                        variables=key,
                        provider_index=provider_index,
                        homomorphism=tuple(sorted(hom.items(),
                                                  key=lambda kv: kv[0].name)),
                        s_vars=s,
                        from_extension=from_extension,
                    )
    return list(results.values())


@dataclass
class DisjunctExtension:
    """A (possibly trivial) union extension of one disjunct.

    ``extended`` is the disjunct with fresh atoms P_0, P_1, ... appended;
    ``fresh`` maps each fresh relation name to the :class:`ProvidedSet`
    whose transported answers interpret it; ``rank`` is the resolution
    round (providers always come from strictly earlier ranks or are
    original disjuncts).
    """

    original: ConjunctiveQuery
    extended: ConjunctiveQuery
    fresh: Dict[str, ProvidedSet]
    rank: int = 0

    def is_trivial(self) -> bool:
        return not self.fresh


def _try_extend(target: ConjunctiveQuery, index: int,
                candidates: List[ProvidedSet], max_added_atoms: int
                ) -> Optional[DisjunctExtension]:
    """Search candidate subsets making the target free-connex."""
    candidates = sorted(candidates,
                        key=lambda p: (-len(p.variables),
                                       [v.name for v in p.variables]))
    for r in range(1, min(max_added_atoms, len(candidates)) + 1):
        for chosen in combinations(candidates, r):
            extended = target
            fresh: Dict[str, ProvidedSet] = {}
            for k, prov in enumerate(chosen):
                name = f"__P{index}_{k}"
                extended = extended.with_extra_atom(Atom(name, prov.variables))
                fresh[name] = prov
            if is_free_connex(extended):
                return DisjunctExtension(target, extended, fresh)
    return None


def find_free_connex_extension(ucq: UnionOfConjunctiveQueries, index: int,
                               max_added_atoms: int = 3
                               ) -> Optional[DisjunctExtension]:
    """A free-connex union extension of disjunct ``index``, if one exists
    with the *original* disjuncts as providers (one recursion level; the
    full recursive search of Definition 4.12 is
    :func:`union_extension_plan`)."""
    target = ucq.disjuncts[index]
    if is_free_connex(target):
        return DisjunctExtension(target, target, {})
    candidates: List[ProvidedSet] = []
    for j, provider in enumerate(ucq.disjuncts):
        if j == index:
            continue
        candidates.extend(provided_sets(provider, j, target))
    return _try_extend(target, index, candidates, max_added_atoms)


def is_free_connex_ucq(ucq: UnionOfConjunctiveQueries) -> bool:
    """Definition 4.12: every disjunct admits a free-connex union
    extension (providers may themselves be extensions — the recursive
    clause)."""
    return union_extension_plan(ucq) is not None


def union_extension_plan(ucq: UnionOfConjunctiveQueries,
                         max_added_atoms: int = 3
                         ) -> Optional[List[DisjunctExtension]]:
    """Free-connex extensions for all disjuncts, or None when some
    disjunct has none.

    Resolution proceeds in rounds and resolved *extensions* join the
    provider pool (Definition 4.12's recursive clause);
    ``DisjunctExtension.rank`` records the round, which is the
    materialisation order for the fresh relations.  Note the recursion's
    reach here is limited: a body homomorphism must map every provider
    atom — including its fresh P-atoms — into the target, so extension
    providers only fire against targets that already carry matching
    atoms.  The full Carmeli-Kroell recursion (extending targets
    incrementally and matching fresh atoms across extensions) is future
    work; the paper itself notes the complete UCQ classification is open.
    """
    n = len(ucq.disjuncts)
    plan: List[Optional[DisjunctExtension]] = [None] * n
    # providers: original disjuncts always; resolved extensions once known
    for i, d in enumerate(ucq.disjuncts):
        if is_free_connex(d):
            ext = DisjunctExtension(d, d, {})
            ext.rank = 0
            plan[i] = ext
    rank = 1
    changed = True
    while changed and any(p is None for p in plan):
        changed = False
        for i in range(n):
            if plan[i] is not None:
                continue
            target = ucq.disjuncts[i]
            candidates: List[ProvidedSet] = []
            for j in range(n):
                if j == i:
                    continue
                candidates.extend(provided_sets(ucq.disjuncts[j], j, target))
                resolved = plan[j]
                if resolved is not None and not resolved.is_trivial():
                    # the recursive clause: the extension provides too
                    candidates.extend(
                        provided_sets(resolved.extended, j, target,
                                      from_extension=True))
            ext = _try_extend(target, i, candidates, max_added_atoms)
            if ext is not None:
                ext.rank = rank
                plan[i] = ext
                changed = True
        rank += 1
    if any(p is None for p in plan):
        return None
    return plan  # type: ignore[return-value]
