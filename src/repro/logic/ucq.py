"""Unions of conjunctive queries (paper Section 4.2, Definition 4.10).

A UCQ is ``phi = phi_1 \\/ ... \\/ phi_k`` where all disjuncts share the
same head arity.  Answers are the union of the disjuncts' answer sets —
enumeration must deduplicate across disjuncts (Theorem 4.13's algorithm
handles this without materialising the union).
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.errors import MalformedQueryError
from repro.logic.cq import ConjunctiveQuery


class UnionOfConjunctiveQueries:
    """phi_1 \\/ ... \\/ phi_k with a shared head arity.

    The head variable *names* may differ between disjuncts; answers from
    disjunct i are tuples ordered by ``phi_i.head``.
    """

    __slots__ = ("name", "disjuncts")

    def __init__(self, disjuncts: Sequence[ConjunctiveQuery], name: str = "Q"):
        disjuncts = tuple(disjuncts)
        if not disjuncts:
            raise MalformedQueryError("a UCQ needs at least one disjunct")
        arity = disjuncts[0].arity
        for d in disjuncts[1:]:
            if d.arity != arity:
                raise MalformedQueryError(
                    f"UCQ disjuncts disagree on arity: {arity} vs {d.arity}"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "disjuncts", disjuncts)

    def __setattr__(self, key: str, value: Any) -> None:
        raise AttributeError("UnionOfConjunctiveQueries is immutable")

    @property
    def arity(self) -> int:
        return self.disjuncts[0].arity

    def is_boolean(self) -> bool:
        return self.arity == 0

    def relation_names(self) -> List[str]:
        out = {}
        for d in self.disjuncts:
            for name in d.relation_names():
                out.setdefault(name, None)
        return list(out)

    def all_disjuncts_free_connex(self) -> bool:
        """Sufficient condition for constant-delay enumeration ([79])."""
        return all(d.is_acyclic() and d.is_free_connex() for d in self.disjuncts)

    def size(self) -> int:
        return sum(d.size() for d in self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __iter__(self):
        return iter(self.disjuncts)

    def __getitem__(self, i: int) -> ConjunctiveQuery:
        return self.disjuncts[i]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnionOfConjunctiveQueries)
            and self.disjuncts == other.disjuncts
        )

    def __hash__(self) -> int:
        return hash(self.disjuncts)

    def __repr__(self) -> str:
        return " \\/ ".join(map(repr, self.disjuncts))
