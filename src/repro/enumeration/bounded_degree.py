"""First-order queries over bounded-degree structures (Section 3.1,
Theorems 3.1-3.2, Example 3.3, Algorithm 1).

On a structure of degree <= c, the r-neighbourhood of any element has at
most c^{r+1} elements, and first-order logic is Hanf-local: every FO
sentence is equivalent to a Boolean combination of statements "there are
at least m elements whose r-ball has type tau".  The engines here exploit
exactly that locality, on the *local-pattern* normal form:

* a :class:`Pattern` is an existential formula
  ``exists y  (positive atoms) /\\ (negated atoms) /\\ (disequalities)``
  whose positive atoms connect all its variables;
* each Gaifman-connected component of a pattern is matched by *anchored
  search*: scan the tuples of one atom and grow the match through shared
  variables — on degree-<= c data each seed explores a constant
  (c^{O(||phi||)}) number of candidates, so matching is linear in ||D||
  and each component has at most ||D|| * c^{O(||phi||)} matches;
* answers to the full pattern are the cross product of per-component
  match lists, minus cross-component disequality exceptions, enumerated
  with Algorithm 1's skip-the-exceptions loop: inner components are
  bucketed by the constrained variable, so at most k bucket skips happen
  between consecutive outputs — constant delay;
* counting (Theorem 3.2) is inclusion-exclusion over the cross-component
  disequalities: forcing a subset of them to be equalities merges
  components, and each term is a product of component match counts —
  2^{#disequalities} linear-time terms;
* Boolean sentences are Hanf-style threshold combinations
  (:class:`ThresholdSentence`, :func:`model_check_sentence`): "at least m
  answers of pattern P", combined with and/or/not.

Substitution note (recorded in DESIGN.md): the automatic conversion of
arbitrary FO into this normal form (Hanf normalisation / the quantifier
elimination of [32]) is not implemented; the engines take the normal form
as input, which is where all the data-dependent work of Theorems 3.1-3.2
happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.data.database import Database
from repro.enumeration.base import Answer, Enumerator
from repro.errors import MalformedQueryError, UnsupportedQueryError
from repro.eval.join import VarRelation
from repro.logic.atoms import Atom, Comparison
from repro.logic.terms import Constant, Variable


@dataclass
class Pattern:
    """An existential local pattern (see module docstring).

    ``head`` lists the free variables (answers are tuples in this order);
    all other variables are existentially quantified.
    """

    head: Tuple[Variable, ...]
    atoms: Tuple[Atom, ...]
    negated: Tuple[Atom, ...] = ()
    disequalities: Tuple[Comparison, ...] = ()
    name: str = "P"

    def __post_init__(self) -> None:
        self.head = tuple(Variable(v) if isinstance(v, str) else v for v in self.head)
        self.atoms = tuple(self.atoms)
        self.negated = tuple(self.negated)
        self.disequalities = tuple(self.disequalities)
        covered: Set[Variable] = set()
        for a in self.atoms:
            covered |= a.variable_set()
        for v in self.head:
            if v not in covered:
                raise MalformedQueryError(f"head variable {v!r} not in any positive atom")
        for a in self.negated:
            if not a.variable_set() <= covered:
                raise MalformedQueryError(
                    f"negated atom {a!r} uses variables outside the positive atoms "
                    "(unsafe negation)"
                )
        for c in self.disequalities:
            if c.op != "!=":
                raise MalformedQueryError("patterns only support != comparisons")
            if not c.variable_set() <= covered:
                raise MalformedQueryError(f"unsafe disequality {c!r}")

    def variables(self) -> Tuple[Variable, ...]:
        seen: Dict[Variable, None] = {}
        for a in self.atoms:
            for v in a.variables():
                seen.setdefault(v, None)
        return tuple(seen)

    def components(self) -> List["_Component"]:
        """Gaifman-connected components of the positive atoms."""
        atoms = list(self.atoms)
        parent = {i: i for i in range(len(atoms))}

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        var_home: Dict[Variable, int] = {}
        for i, a in enumerate(atoms):
            for v in a.variable_set():
                if v in var_home:
                    parent[find(i)] = find(var_home[v])
                else:
                    var_home[v] = i
        groups: Dict[int, List[int]] = {}
        for i in range(len(atoms)):
            groups.setdefault(find(i), []).append(i)
        comps: List[_Component] = []
        for idxs in groups.values():
            comp_vars: Dict[Variable, None] = {}
            for i in idxs:
                for v in atoms[i].variables():
                    comp_vars.setdefault(v, None)
            comp_var_set = frozenset(comp_vars)
            neg = tuple(a for a in self.negated if a.variable_set() <= comp_var_set)
            dis = tuple(c for c in self.disequalities if c.variable_set() <= comp_var_set)
            comps.append(_Component(
                atoms=tuple(atoms[i] for i in idxs),
                variables=tuple(comp_vars),
                negated=neg,
                disequalities=dis,
            ))
        comps.sort(key=lambda c: tuple(v.name for v in c.variables))
        return comps

    def cross_disequalities(self) -> List[Comparison]:
        """Disequalities spanning two components."""
        internal: Set[Comparison] = set()
        for comp in self.components():
            internal.update(comp.disequalities)
        return [c for c in self.disequalities if c not in internal]


@dataclass
class _Component:
    atoms: Tuple[Atom, ...]
    variables: Tuple[Variable, ...]
    negated: Tuple[Atom, ...]
    disequalities: Tuple[Comparison, ...]


def match_component(comp: _Component, db: Database) -> VarRelation:
    """All satisfying assignments of one connected component.

    Anchored search: scan the smallest atom's relation; every further
    variable is bound by probing an atom that shares an already-bound
    variable (exists, by connectedness).  With degree bound c each seed
    tuple explores at most c^{#atoms} candidates, so the pass is linear
    in ||D|| for a fixed pattern.
    """
    order = _anchor_order(comp, db)
    anchor = order[0]
    rel = db.relation(anchor.relation)
    out = VarRelation(comp.variables)

    def extend(i: int, assignment: Dict[Variable, Any]) -> None:
        if i == len(order):
            for neg in comp.negated:
                tup = tuple(
                    t.value if isinstance(t, Constant) else assignment[t]
                    for t in neg.terms
                )
                if tup in db.relation(neg.relation):
                    return
            for dis in comp.disequalities:
                if not dis.evaluate(assignment):
                    return
            out.add(tuple(assignment[v] for v in comp.variables))
            return
        atom = order[i]
        relation = db.relation(atom.relation)
        bound_positions: List[int] = []
        key: List[Any] = []
        for pos, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                bound_positions.append(pos)
                key.append(term.value)
            elif term in assignment:
                bound_positions.append(pos)
                key.append(assignment[term])
        candidates = relation.probe(bound_positions, key) if bound_positions else list(relation)
        for t in candidates:
            if not atom.matches(t):
                continue
            binding = atom.bind(t)
            added = [v for v in binding if v not in assignment]
            assignment.update({v: binding[v] for v in added})
            extend(i + 1, assignment)
            for v in added:
                del assignment[v]

    for t in rel:
        if not anchor.matches(t):
            continue
        assignment = anchor.bind(t)
        extend(1, assignment)
    return out


def _anchor_order(comp: _Component, db: Database) -> List[Atom]:
    """Atoms ordered so every atom after the first shares a variable with
    an earlier one; the anchor is the atom with the smallest relation."""
    atoms = list(comp.atoms)
    anchor = min(atoms, key=lambda a: len(db.relation(a.relation)))
    order = [anchor]
    bound = set(anchor.variable_set())
    rest = [a for a in atoms if a is not anchor]
    while rest:
        nxt = next((a for a in rest if a.variable_set() & bound), None)
        if nxt is None:
            raise MalformedQueryError("component atoms are not connected")
        rest.remove(nxt)
        order.append(nxt)
        bound |= nxt.variable_set()
    return order


class BoundedDegreeEnumerator(Enumerator):
    """Constant-delay enumeration of a local pattern's answers
    (Theorem 3.2's enumeration claim).

    Preprocessing is one linear pass per component; the enumeration phase
    walks the cross product of the per-component (head-projected) match
    lists, skipping cross-component disequality exceptions via value
    buckets — the generalisation of Algorithm 1 of the paper.

    Supported cross-component disequalities: between head variables.  The
    inner component's bucket variable is the one its cross-disequalities
    constrain (at most one such variable per component).
    """

    def __init__(self, pattern: Pattern, db: Database):
        super().__init__()
        self.pattern = pattern
        self.db = db
        self._projected: List[VarRelation] = []
        self._proj_vars: List[Tuple[Variable, ...]] = []
        self._cross: List[Comparison] = []
        self._buckets: List[Optional[Dict[Any, List[Tuple[Any, ...]]]]] = []
        self._bucket_var: List[Optional[Variable]] = []

    def _preprocess(self) -> None:
        pattern, db = self.pattern, self.db
        head = set(pattern.head)
        self._cross = pattern.cross_disequalities()
        for comp in self._cross:
            if not comp.variable_set() <= head:
                raise UnsupportedQueryError(
                    f"cross-component disequality {comp!r} involves a "
                    "quantified variable — outside the supported fragment"
                )
        comps = pattern.components()
        for comp in comps:
            matches = match_component(comp, db)
            proj_vars = tuple(v for v in comp.variables if v in head)
            self._proj_vars.append(proj_vars)
            self._projected.append(matches.project(proj_vars))
        # decide, per component, the bucket variable: the variable its
        # incoming cross-disequalities constrain
        comp_of_var: Dict[Variable, int] = {}
        for i, pv in enumerate(self._proj_vars):
            for v in pv:
                comp_of_var[v] = i
        constrained: Dict[int, Set[Variable]] = {}
        for comp in self._cross:
            a, b = comp.left, comp.right
            if not (isinstance(a, Variable) and isinstance(b, Variable)):
                continue  # variable-vs-constant handled as a plain filter
            ia, ib = comp_of_var[a], comp_of_var[b]
            # the later component in enumeration order buckets
            later, var = (ia, a) if ia > ib else (ib, b)
            constrained.setdefault(later, set()).add(var)
        self._buckets = []
        self._bucket_var = []
        for i, rel in enumerate(self._projected):
            vars_here = constrained.get(i, set())
            if len(vars_here) == 1:
                v = next(iter(vars_here))
                pos = rel.position(v)
                buckets: Dict[Any, List[Tuple[Any, ...]]] = {}
                for t in rel:
                    buckets.setdefault(t[pos], []).append(t)
                self._buckets.append(buckets)
                self._bucket_var.append(v)
            else:
                self._buckets.append(None)
                self._bucket_var.append(None)

    def _enumerate(self) -> Iterator[Answer]:
        pattern = self.pattern
        n = len(self._projected)
        if any(len(r) == 0 for r in self._projected):
            return
        head = pattern.head
        # constant filters (variable != constant) and, for components with
        # several constrained variables, fallback filters
        fallback: List[Comparison] = []
        comp_of_var: Dict[Variable, int] = {}
        for i, pv in enumerate(self._proj_vars):
            for v in pv:
                comp_of_var[v] = i
        bucketised: Dict[int, List[Comparison]] = {}
        for comp in self._cross:
            a, b = comp.left, comp.right
            if isinstance(a, Variable) and isinstance(b, Variable):
                later = max(comp_of_var[a], comp_of_var[b])
                if self._bucket_var[later] is not None:
                    bucketised.setdefault(later, []).append(comp)
                else:
                    fallback.append(comp)
            else:
                fallback.append(comp)

        assignment: Dict[Variable, Any] = {}

        def rec(i: int) -> Iterator[Answer]:
            if i == n:
                for comp in fallback:
                    if not comp.evaluate(assignment):
                        return
                yield tuple(assignment[v] for v in head)
                return
            rel = self._projected[i]
            buckets = self._buckets[i]
            if buckets is None:
                iterable: Iterator[Tuple[Any, ...]] = iter(rel)
            else:
                bucket_var = self._bucket_var[i]
                forbidden: Set[Any] = set()
                for comp in bucketised.get(i, []):
                    other = comp.right if comp.left is bucket_var else comp.left
                    if isinstance(other, Variable):
                        forbidden.add(assignment[other])
                    else:
                        forbidden.add(other.value)

                def bucket_iter() -> Iterator[Tuple[Any, ...]]:
                    for value, tuples in buckets.items():
                        if value not in forbidden:
                            yield from tuples

                iterable = bucket_iter()
            for t in iterable:
                for v, val in zip(self._proj_vars[i], t):
                    assignment[v] = val
                yield from rec(i + 1)
            for v in self._proj_vars[i]:
                assignment.pop(v, None)

        yield from rec(0)


# ------------------------------------------------------------------- counting


def count_pattern(pattern: Pattern, db: Database, distinct_head: bool = False) -> int:
    """Number of satisfying assignments of the pattern's variables
    (Theorem 3.2's counting claim).

    Cross-component disequalities are handled by inclusion-exclusion:
    forcing a subset of them to equalities identifies variables, merging
    components; every term is a product of per-component match counts,
    each computed in linear time.

    With ``distinct_head=True`` the count is of *answers* (distinct head
    tuples); this requires the pattern to be quantifier-free or to have
    quantified variables only in components without cross constraints.
    """
    from itertools import combinations

    cross = pattern.cross_disequalities()
    if distinct_head and cross:
        raise UnsupportedQueryError(
            "distinct-answer counting with cross-component disequalities is "
            "outside the inclusion-exclusion fragment"
        )
    relaxed = Pattern(pattern.head, pattern.atoms, pattern.negated,
                      tuple(c for c in pattern.disequalities if c not in cross),
                      pattern.name)
    total = 0
    for r in range(len(cross) + 1):
        for subset in combinations(cross, r):
            total += (-1) ** r * _count_merged(relaxed, subset, db, distinct_head)
    return total


def _count_merged(relaxed: Pattern, forced: Sequence[Comparison], db: Database,
                  distinct_head: bool) -> int:
    """Count matches of ``relaxed`` (no cross disequalities) with the
    equalities in ``forced`` applied by variable identification."""
    mapping: Dict[Variable, Variable] = {}

    def root(v: Variable) -> Variable:
        while v in mapping:
            v = mapping[v]
        return v

    for comp in forced:
        a, b = comp.left, comp.right
        if not (isinstance(a, Variable) and isinstance(b, Variable)):
            raise UnsupportedQueryError(
                "inclusion-exclusion needs variable-to-variable disequalities"
            )
        ra, rb = root(a), root(b)
        if ra is not rb:
            mapping[ra] = rb

    def rename_term(t):
        return root(t) if isinstance(t, Variable) else t

    new_atoms = [Atom(a.relation, [rename_term(t) for t in a.terms])
                 for a in relaxed.atoms]
    new_neg = [Atom(a.relation, [rename_term(t) for t in a.terms])
               for a in relaxed.negated]
    new_dis = []
    for c in relaxed.disequalities:
        left, right = rename_term(c.left), rename_term(c.right)
        if isinstance(left, Variable) and left is right:
            return 0
        new_dis.append(Comparison(left, "!=", right))
    merged = Pattern(
        head=tuple(dict.fromkeys(rename_term(v) for v in relaxed.head)),
        atoms=tuple(new_atoms),
        negated=tuple(new_neg),
        disequalities=tuple(new_dis),
        name=relaxed.name,
    )
    total = 1
    for comp in merged.components():
        matches = match_component(comp, db)
        if distinct_head:
            head_set = set(merged.head)
            proj = tuple(v for v in comp.variables if v in head_set)
            matches = matches.project(proj)
        total *= len(matches)
        if total == 0:
            return 0
    return total


def model_check_pattern(pattern: Pattern, db: Database) -> bool:
    """Is the existential closure of the pattern true (Theorem 3.1)?"""
    return count_pattern(pattern, db) > 0


# ------------------------------------------------- Hanf threshold sentences


@dataclass
class ThresholdSentence:
    """"At least ``threshold`` satisfying assignments of ``pattern``" —
    the building block of Hanf normal form."""

    pattern: Pattern
    threshold: int = 1

    def holds(self, db: Database) -> bool:
        return count_pattern(self.pattern, db) >= self.threshold


@dataclass
class BoolCombo:
    """Boolean combination of threshold sentences: op in and/or/not."""

    op: str
    children: Tuple[Any, ...]

    def holds(self, db: Database) -> bool:
        if self.op == "and":
            return all(c.holds(db) for c in self.children)
        if self.op == "or":
            return any(c.holds(db) for c in self.children)
        if self.op == "not":
            return not self.children[0].holds(db)
        raise MalformedQueryError(f"unknown boolean op {self.op!r}")


def model_check_sentence(sentence, db: Database) -> bool:
    """Evaluate a Hanf-normal-form sentence: a ThresholdSentence or a
    BoolCombo tree over them.  Linear in ||D|| for fixed sentence on
    bounded-degree classes."""
    return sentence.holds(db)
