"""Variable-indexed relations and relational operators.

A :class:`VarRelation` is a relation whose columns are named by query
variables — the working representation inside all join-tree algorithms.
It supports hash-join, semijoin and projection, and builds per-variable-
subset hash indexes lazily (mirroring :class:`repro.data.relation.Relation`
but keyed by variables instead of positions).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.data.database import Database
from repro.logic.atoms import Atom
from repro.logic.terms import Variable

Tup = Tuple[Any, ...]


class VarRelation:
    """A relation over an ordered tuple of variables."""

    __slots__ = ("variables", "_tuples", "_indexes", "_positions")

    def __init__(self, variables: Sequence[Variable], tuples: Optional[Iterable[Tup]] = None):
        self.variables: Tuple[Variable, ...] = tuple(variables)
        self._positions: Dict[Variable, int] = {v: i for i, v in enumerate(self.variables)}
        if len(self._positions) != len(self.variables):
            raise ValueError("duplicate variables in VarRelation schema")
        self._tuples: Dict[Tup, None] = {}
        self._indexes: Dict[Tuple[Variable, ...], Dict[Tup, List[Tup]]] = {}
        if tuples is not None:
            for t in tuples:
                self.add(t)

    # ----------------------------------------------------------------- basics

    def add(self, tup: Tup) -> None:
        t = tuple(tup)
        if len(t) != len(self.variables):
            raise ValueError(
                f"tuple length {len(t)} does not match schema {self.variables}"
            )
        if t not in self._tuples:
            self._tuples[t] = None
            for vars_key, index in self._indexes.items():
                key = tuple(t[self._positions[v]] for v in vars_key)
                index.setdefault(key, []).append(t)

    def __iter__(self) -> Iterator[Tup]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, tup: Tup) -> bool:
        return tuple(tup) in self._tuples

    def __repr__(self) -> str:
        names = ",".join(v.name for v in self.variables)
        return f"VarRelation([{names}], size={len(self)})"

    def position(self, v: Variable) -> int:
        return self._positions[v]

    def has_variable(self, v: Variable) -> bool:
        return v in self._positions

    def assignment(self, tup: Tup) -> Dict[Variable, Any]:
        return {v: tup[i] for i, v in enumerate(self.variables)}

    def tuples(self) -> List[Tup]:
        return list(self._tuples)

    # --------------------------------------------------------------- indexing

    def index_on(self, variables: Sequence[Variable]) -> Dict[Tup, List[Tup]]:
        vars_key = tuple(variables)
        if vars_key not in self._indexes:
            positions = [self._positions[v] for v in vars_key]
            index: Dict[Tup, List[Tup]] = {}
            for t in self._tuples:
                index.setdefault(tuple(t[p] for p in positions), []).append(t)
            self._indexes[vars_key] = index
        return self._indexes[vars_key]

    def probe(self, variables: Sequence[Variable], key: Sequence[Any]) -> List[Tup]:
        """Tuples agreeing with ``key`` on ``variables`` — O(1) + output."""
        return self.index_on(tuple(variables)).get(tuple(key), [])

    # -------------------------------------------------------------- operators

    def project(self, variables: Sequence[Variable]) -> "VarRelation":
        vars_out = tuple(variables)
        positions = [self._positions[v] for v in vars_out]
        out = VarRelation(vars_out)
        for t in self._tuples:
            out.add(tuple(t[p] for p in positions))
        return out

    def semijoin(self, other: "VarRelation") -> "VarRelation":
        """Tuples of self that agree with some tuple of other on the shared
        variables.  If no variables are shared, the semijoin keeps everything
        when ``other`` is non-empty and nothing otherwise."""
        shared = [v for v in self.variables if other.has_variable(v)]
        if not shared:
            return self.copy() if len(other) else VarRelation(self.variables)
        other_index = other.index_on(shared)
        positions = [self._positions[v] for v in shared]
        out = VarRelation(self.variables)
        for t in self._tuples:
            if tuple(t[p] for p in positions) in other_index:
                out.add(t)
        return out

    def join(self, other: "VarRelation") -> "VarRelation":
        """Natural hash join."""
        shared = [v for v in self.variables if other.has_variable(v)]
        extra = [v for v in other.variables if v not in self._positions]
        out_vars = self.variables + tuple(extra)
        out = VarRelation(out_vars)
        other_index = other.index_on(shared)
        self_positions = [self._positions[v] for v in shared]
        extra_positions = [other.position(v) for v in extra]
        for t in self._tuples:
            key = tuple(t[p] for p in self_positions)
            for u in other_index.get(key, []):
                out.add(t + tuple(u[p] for p in extra_positions))
        return out

    def copy(self) -> "VarRelation":
        out = VarRelation(self.variables)
        out._tuples = dict(self._tuples)
        return out

    def rename(self, mapping: Dict[Variable, Variable]) -> "VarRelation":
        """Rename columns along ``mapping`` (variables not mapped keep
        their name); tuples with conflicting merged columns are dropped."""
        new_vars: List[Variable] = []
        for v in self.variables:
            nv = mapping.get(v, v)
            if nv not in new_vars:
                new_vars.append(nv)
        out = VarRelation(new_vars)
        for t in self._tuples:
            values: Dict[Variable, Any] = {}
            ok = True
            for v, val in zip(self.variables, t):
                nv = mapping.get(v, v)
                if nv in values and values[nv] != val:
                    ok = False
                    break
                values[nv] = val
            if ok:
                out.add(tuple(values[v] for v in new_vars))
        return out


def atom_to_varrelation(db: Database, atom: Atom) -> VarRelation:
    """Materialise an atom against the database.

    Handles constants and repeated variables: only matching tuples
    contribute, and the result's schema is the atom's distinct variables in
    first-occurrence order.  Constant positions are answered with one
    :meth:`Relation.index_on` probe (O(1) amortised — a fully-bound atom
    never scans the relation), and repeated-variable constraints without
    constants enumerate only the diagonal buckets of an index over the
    repeated positions.
    """
    from repro.logic.terms import Constant

    rel = db.relation_for(atom)
    variables = atom.variables()
    first_pos: Dict[Variable, int] = {}
    const_positions: List[int] = []
    const_key: List[Any] = []
    dup_groups: Dict[int, List[int]] = {}
    for pos, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            const_positions.append(pos)
            const_key.append(term.value)
        elif term in first_pos:
            dup_groups.setdefault(first_pos[term], []).append(pos)
        else:
            first_pos[term] = pos
    out_positions = [first_pos[v] for v in variables]

    if const_positions:
        candidates: Iterable[Tup] = rel.probe(const_positions, const_key)
    elif dup_groups:
        # no constants to probe: use an index over one repeated group and
        # keep only its diagonal buckets (key values all equal)
        base, extras = next(iter(dup_groups.items()))
        index = rel.index_on((base, *extras))
        candidates = [
            t
            for key, bucket in index.items()
            if all(k == key[0] for k in key)
            for t in bucket
        ]
    else:
        candidates = rel

    out = VarRelation(variables)
    if dup_groups:
        checks = list(dup_groups.items())
        for t in candidates:
            if all(t[p] == t[b] for b, ps in checks for p in ps):
                out.add(tuple(t[p] for p in out_positions))
    else:
        for t in candidates:
            out.add(tuple(t[p] for p in out_positions))
    return out


def product(relations: Sequence[VarRelation]) -> VarRelation:
    """Natural join of a list of relations, left to right."""
    if not relations:
        return VarRelation((), [()])
    acc = relations[0].copy()
    for r in relations[1:]:
        acc = acc.join(r)
    return acc
