"""Signed conjunctive queries: positive AND negative atoms (Section 4.5's
closing remark — "partial characterizations for the complexity of signed
queries ... are given in [Brault-Baron 2013]").

A signed query is

    phi(x) = exists y  /\\_i R_i(z_i)  /\\_j NOT S_j(w_j)

with the usual safety condition that every variable occurs in some
positive atom (otherwise negation quantifies over the whole domain and
the answer is not domain-independent).

Evaluation: backtracking driven by the positive atoms, with each
negative atom checked (an O(1) hash probe) as soon as its variables are
bound.  Classification per [18]'s partial picture: the positive part's
structure gives the upper bounds (the negative atoms only add constant-
time probes per candidate), while beta-acyclicity governs the purely
negative fragment (Theorem 4.31).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Sequence, Set, Tuple

from repro.data.database import Database
from repro.errors import MalformedQueryError, QuerySyntaxError
from repro.logic.atoms import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.ncq import NegativeConjunctiveQuery
from repro.logic.terms import Constant, Variable, as_term


class SignedConjunctiveQuery:
    """exists y ( /\\ positive atoms  /\\  NOT negative atoms )."""

    __slots__ = ("name", "head", "positive", "negative")

    def __init__(self, head: Sequence[Any], positive: Sequence[Atom],
                 negative: Sequence[Atom], name: str = "Q"):
        head_vars: List[Variable] = []
        for h in head:
            t = as_term(h)
            if not isinstance(t, Variable):
                raise MalformedQueryError(f"head terms must be variables, got {t!r}")
            if t in head_vars:
                raise MalformedQueryError(f"duplicate head variable {t!r}")
            head_vars.append(t)
        positive = tuple(positive)
        negative = tuple(negative)
        if not positive:
            raise MalformedQueryError(
                "a signed query needs at least one positive atom; use "
                "NegativeConjunctiveQuery for purely negative bodies")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "head", tuple(head_vars))
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "negative", negative)
        covered: Set[Variable] = set()
        for a in positive:
            covered |= a.variable_set()
        for v in head_vars:
            if v not in covered:
                raise MalformedQueryError(f"head variable {v!r} not in a positive atom")
        for a in negative:
            if not a.variable_set() <= covered:
                raise MalformedQueryError(
                    f"negated atom {a!r} uses variables outside the positive "
                    "atoms (unsafe negation)")

    def __setattr__(self, key: str, value: Any) -> None:
        raise AttributeError("SignedConjunctiveQuery is immutable")

    @property
    def arity(self) -> int:
        return len(self.head)

    def is_boolean(self) -> bool:
        return not self.head

    def positive_core(self) -> ConjunctiveQuery:
        """The positive part as a plain CQ (drives the classification)."""
        return ConjunctiveQuery(self.head, self.positive, (), name=self.name)

    def relation_names(self) -> List[str]:
        out: Dict[str, None] = {}
        for a in self.positive + self.negative:
            out.setdefault(a.relation, None)
        return list(out)

    def __repr__(self) -> str:
        head = ", ".join(v.name for v in self.head)
        parts = [repr(a) for a in self.positive]
        parts += [f"not {a!r}" for a in self.negative]
        return f"{self.name}({head}) :- " + ", ".join(parts)


def evaluate_signed(query: SignedConjunctiveQuery, db: Database
                    ) -> Set[Tuple[Any, ...]]:
    """phi(D): positive-atom backtracking + negative-atom probes."""
    out: Set[Tuple[Any, ...]] = set()
    for assignment in signed_assignments(query, db):
        out.add(tuple(assignment[v] for v in query.head))
    return out


def signed_assignments(query: SignedConjunctiveQuery, db: Database
                       ) -> Iterator[Dict[Variable, Any]]:
    """All satisfying assignments of all variables."""
    from repro.eval.naive import satisfying_assignments

    positive = ConjunctiveQuery(
        list({v: None for a in query.positive for v in a.variables()}),
        query.positive, (), name=query.name)
    # negative atoms grouped by the point where they become fully bound is
    # handled lazily: check all once an assignment is complete (the probes
    # are O(1) each; early checks are an optimisation, not a necessity)
    for assignment in satisfying_assignments(positive, db):
        ok = True
        for atom in query.negative:
            tup = tuple(
                t.value if isinstance(t, Constant) else assignment[t]
                for t in atom.terms)
            if tup in db.relation(atom.relation):
                ok = False
                break
        if ok:
            yield assignment


def decide_signed(query: SignedConjunctiveQuery, db: Database) -> bool:
    """Is the signed query satisfiable (first witness wins)?"""
    for _ in signed_assignments(query, db):
        return True
    return False


def count_signed(query: SignedConjunctiveQuery, db: Database) -> int:
    """|phi(D)| (distinct head tuples)."""
    return len(evaluate_signed(query, db))


def parse_signed(text: str) -> SignedConjunctiveQuery:
    """Parse one rule that mixes positive and ``not`` atoms (``parse_query``'s syntax)."""
    from repro.logic.parser import parse_rules

    (name, head, positive, negative, comparisons), *more = parse_rules(
        text, lambda *rule: rule)
    if more:
        raise QuerySyntaxError(f"expected one signed rule, got {1 + len(more)}")
    if comparisons:
        raise MalformedQueryError("signed queries do not take comparisons here")
    return SignedConjunctiveQuery(head, positive, negative, name=name)
