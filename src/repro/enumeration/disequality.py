"""Enumeration of acyclic conjunctive queries with disequalities
(Section 4.3, Theorem 4.20).

The paper eliminates disequalities through a functional re-encoding plus
the cover machinery of :mod:`repro.enumeration.covers`: a constraint
"exists a witness z avoiding the values f'(x)" fails exactly when f'(x)
covers the witness table, and representative sets compress each witness
table to O(k!) entries during a linear preprocessing pass.

This engine implements that idea directly on the relational
representation for the fragment where it stays a constant-size-per-answer
test (everything else falls back to a correct linear-delay engine):

* disequalities between two *free* variables (or a free variable and a
  constant) — checked on the produced answer in O(1) each;
* disequalities whose two variables share an atom — enforced once, while
  materialising that atom's relation (a linear filter);
* disequalities ``z != w`` with z existentially quantified, provided z
  occurs in exactly one atom whose other variables are free: during
  preprocessing the atom is grouped by those variables and, per group,
  only ``k+1`` distinct witness values are retained, where k is the
  number of disequalities on z.  Since every disequality function here is
  the identity, a (k+1)-element subset *is* a representative set in the
  sense of Definition 4.19 — a tuple of k forbidden values covers the
  group iff it covers the retained subset.  At enumeration time each
  candidate answer is checked against at most k+1 stored witnesses per
  constrained atom: query-size work, independent of ||D||.

Queries outside this fragment still enumerate correctly through
:class:`FallbackDisequalityEnumerator` (naive assignments + head
deduplication), which realises the paper's weaker
"f(phi) * ||phi(D)|| * ||D||" bound in spirit.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.data.database import Database
from repro.enumeration.base import Answer, Enumerator
from repro.enumeration.full_acyclic import FullJoinEnumerator
from repro.errors import NotFreeConnexError, UnsupportedQueryError
from repro.eval.join import VarRelation, atom_to_varrelation
from repro.eval.naive import satisfying_assignments
from repro.eval.yannakakis import free_join, full_reducer
from repro.logic.atoms import Atom, Comparison
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Variable


class _WitnessConstraint:
    """One quantified variable's disequality bundle.

    For atom A(y_vars..., z) grouped by the free variables y_vars: at most
    k+1 distinct z-witnesses are stored per group; a candidate answer
    passes iff some stored witness avoids all its forbidden values.
    """

    __slots__ = ("atom_index", "group_vars", "witnesses", "others")

    def __init__(self, atom_index: int, group_vars: Tuple[Variable, ...],
                 witnesses: Dict[Tuple[Any, ...], Tuple[Any, ...]],
                 others: Tuple[Any, ...]):
        self.atom_index = atom_index
        self.group_vars = group_vars
        # group key -> up to k+1 distinct witness values
        self.witnesses = witnesses
        # the other sides of the disequalities: Variables (free) or raw values
        self.others = others

    def passes(self, assignment: Dict[Variable, Any]) -> bool:
        key = tuple(assignment[v] for v in self.group_vars)
        stored = self.witnesses.get(key)
        if stored is None:
            return False
        forbidden = {
            assignment[o] if isinstance(o, Variable) else o for o in self.others
        }
        return any(w not in forbidden for w in stored)


def _split_comparisons(cq: ConjunctiveQuery):
    """Categorise the disequalities; raise on order comparisons."""
    if cq.order_comparisons():
        raise UnsupportedQueryError(
            "order comparisons (<, <=) make even acyclic queries W[1]-hard "
            "(Theorem 4.15); this engine handles disequalities only"
        )
    free = cq.free_variables()
    atom_vars = [a.variable_set() for a in cq.atoms]
    free_free: List[Comparison] = []
    same_atom: List[Comparison] = []
    quantified: List[Comparison] = []
    for comp in cq.disequalities():
        vs = comp.variable_set()
        quant = vs - free
        if not quant:
            free_free.append(comp)
        elif any(vs <= av for av in atom_vars):
            same_atom.append(comp)
        else:
            quantified.append(comp)
    return free_free, same_atom, quantified


class DisequalityEnumerator(Enumerator):
    """Constant-delay-style enumeration of a free-connex ACQ with
    disequalities (see module docstring for the exact fragment)."""

    def __init__(self, cq: ConjunctiveQuery, db: Database):
        super().__init__()
        core = cq.without_comparisons()
        if not core.is_acyclic():
            raise NotFreeConnexError(f"core of {cq!r} is not acyclic")
        if not core.is_free_connex():
            raise NotFreeConnexError(
                f"core of {cq!r} is not free-connex; Theorem 4.20 says no "
                "constant-delay enumeration is possible (assuming Mat-Mul)"
            )
        self.cq = cq
        self.db = db
        self._constraints: List[_WitnessConstraint] = []
        self._free_checks: List[Comparison] = []
        self._inner: Optional[FullJoinEnumerator] = None
        self._boolean_true = False

    # ------------------------------------------------------------ preprocess

    def _preprocess(self) -> None:
        cq, db = self.cq, self.db
        free = cq.free_variables()
        free_free, same_atom, quantified = _split_comparisons(cq)
        self._free_checks = free_free

        # group the quantified disequalities by their quantified variable
        by_var: Dict[Variable, List[Comparison]] = {}
        for comp in quantified:
            quants = [v for v in comp.variables() if v not in free]
            if len(quants) != 1:
                raise UnsupportedQueryError(
                    f"disequality {comp!r} links two quantified variables "
                    "from different atoms — outside the supported fragment"
                )
            by_var.setdefault(quants[0], []).append(comp)

        # materialise atoms, applying same-atom disequalities immediately
        relations = [atom_to_varrelation(db, atom) for atom in cq.atoms]
        for comp in same_atom:
            for i, atom in enumerate(cq.atoms):
                if comp.variable_set() <= atom.variable_set():
                    filtered = VarRelation(relations[i].variables)
                    for t in relations[i]:
                        if comp.evaluate(relations[i].assignment(t)):
                            filtered.add(t)
                    relations[i] = filtered
                    break

        # rewrite each constrained quantified variable's atom
        drop_vars: Set[Variable] = set()
        for z, comps in by_var.items():
            hosts = [i for i, a in enumerate(cq.atoms) if z in a.variable_set()]
            if len(hosts) != 1:
                raise UnsupportedQueryError(
                    f"quantified variable {z!r} occurs in {len(hosts)} atoms; "
                    "the witness-table rewriting needs a single host atom"
                )
            host = hosts[0]
            group_vars = tuple(v for v in relations[host].variables if v is not z)
            if any(v not in free for v in group_vars):
                raise UnsupportedQueryError(
                    f"host atom of {z!r} has quantified co-variables; outside "
                    "the supported fragment"
                )
            k = len(comps)
            others: List[Any] = []
            for comp in comps:
                other_term = comp.right if comp.left is z else comp.left
                others.append(
                    other_term if isinstance(other_term, Variable) else other_term.value
                )
            # representative witnesses: k+1 distinct z values per group
            witnesses: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
            z_pos = relations[host].position(z)
            group_pos = [relations[host].position(v) for v in group_vars]
            staging: Dict[Tuple[Any, ...], List[Any]] = {}
            for t in relations[host]:
                key = tuple(t[p] for p in group_pos)
                bucket = staging.setdefault(key, [])
                if len(bucket) <= k and t[z_pos] not in bucket:
                    bucket.append(t[z_pos])
            for key, bucket in staging.items():
                witnesses[key] = tuple(bucket)
            self._constraints.append(
                _WitnessConstraint(host, group_vars, witnesses, tuple(others))
            )
            # z is existential and now fully handled: project it away
            relations[host] = relations[host].project(group_vars)
            drop_vars.add(z)

        # the core query with the constrained variables projected out
        core = self._projected_core(drop_vars)
        if not core.is_free_connex():
            raise NotFreeConnexError(
                f"{core!r} is not free-connex after rewriting")
        _tree, reduced = full_reducer(core, None, relations=relations)
        derived = free_join(core, reduced)
        if derived is None:
            return
        if core.is_boolean():
            # nothing is left to join; the checks still apply
            self._boolean_true = self._passes({})
            return
        # globally consistent already, as in FreeConnexEnumerator
        self._inner = FullJoinEnumerator(derived, self.cq.head, reduce=False)
        self._inner.preprocess()

    def _projected_core(self, drop_vars: Set[Variable]) -> ConjunctiveQuery:
        """The comparison-free core with constrained variables deleted from
        their (single) host atoms."""
        new_atoms: List[Atom] = []
        for i, atom in enumerate(self.cq.atoms):
            kept = [t for t in atom.terms
                    if not (isinstance(t, Variable) and t in drop_vars)]
            if len(kept) != len(atom.terms):
                new_atoms.append(Atom(f"__proj{i}_{atom.relation}", kept))
            else:
                new_atoms.append(atom)
        return ConjunctiveQuery(self.cq.head, new_atoms, (), name=self.cq.name)

    def _passes(self, assignment: Dict[Variable, Any]) -> bool:
        for comp in self._free_checks:
            if not comp.evaluate(assignment):
                return False
        for constraint in self._constraints:
            if not constraint.passes(assignment):
                return False
        return True

    # ------------------------------------------------------------- enumerate

    def _enumerate(self) -> Iterator[Answer]:
        if self.cq.is_boolean():
            if self._boolean_true:
                yield ()
            return
        if self._inner is None:
            return
        head = tuple(self.cq.head)
        for tup in self._inner._enumerate():
            assignment = dict(zip(head, tup))
            if self._passes(assignment):
                yield tup


class FallbackDisequalityEnumerator(Enumerator):
    """Correct (but only polynomial-delay) enumeration for ACQ!= queries
    outside the constant-delay fragment: backtracking assignments with
    head deduplication."""

    def __init__(self, cq: ConjunctiveQuery, db: Database):
        super().__init__()
        self.cq = cq
        self.db = db

    def _preprocess(self) -> None:
        return None

    def _enumerate(self) -> Iterator[Answer]:
        seen: Set[Answer] = set()
        head = self.cq.head
        for assignment in satisfying_assignments(self.cq, self.db):
            tup = tuple(assignment[v] for v in head)
            if tup not in seen:
                seen.add(tup)
                yield tup


def enumerate_acq_disequalities(cq: ConjunctiveQuery, db: Database) -> Enumerator:
    """Best applicable engine: the witness-table constant-delay engine when
    the query fits its fragment, otherwise the fallback."""
    try:
        enum = DisequalityEnumerator(cq, db)
        enum.preprocess()  # fragment checks happen here
        return enum
    except UnsupportedQueryError:
        return FallbackDisequalityEnumerator(cq, db)
