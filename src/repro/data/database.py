"""Databases: finite relational structures (paper Section 2.1).

A :class:`Database` packages a set of named :class:`~repro.data.relation.Relation`
objects together with an explicit domain.  It implements the size measure

    ||D|| = |sigma| + |Dom(D)| + sum_R |R^D| * ar(R)

and the *degree* of a structure (Section 3.1): the degree of an element is
the total number of tuples, over all relations, in which it occurs; the
degree of the structure is the maximum over its elements.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.data.relation import Relation
from repro.errors import MalformedQueryError, SchemaMismatchError


class Database:
    """A finite relational structure over an explicit domain.

    The domain always contains every value occurring in some relation;
    isolated domain elements (occurring in no tuple) are allowed and matter
    for the semantics of quantifiers and for the degree notion.

    The domain is kept lazily: registering or mutating a relation merges
    nothing, and every read of the domain first catches up with each
    relation whose ``version`` moved since the last read.  Explicit
    values (``domain=``, :meth:`add_domain_values`) catch up first too,
    so the order is relation values in registration order, then explicit
    values, then later relation values.
    """

    def __init__(self, relations: Optional[Iterable[Relation]] = None,
                 domain: Optional[Iterable[Any]] = None):
        self._relations: Dict[str, Relation] = {}
        self._domain: Dict[Any, None] = {}
        # relation name -> the version its values were last merged at
        self._synced: Dict[str, int] = {}
        # explicit domain values added so far (the fingerprint's first
        # field: reading the domain must never move the fingerprint)
        self._explicit = 0
        if relations is not None:
            for rel in relations:
                self.add_relation(rel)
        if domain is not None:
            self.add_domain_values(domain)

    # ----------------------------------------------------------- construction

    @classmethod
    def from_relations(cls, relations: Mapping[str, Iterable[Sequence[Any]]],
                       domain: Optional[Iterable[Any]] = None) -> "Database":
        """Build a database from ``{name: iterable of tuples}``.

        Arities are inferred from the first tuple of each relation; an empty
        iterable is rejected here because its arity is ambiguous — construct
        a :class:`Relation` explicitly for empty relations.
        """
        rels = []
        for name, tuples in relations.items():
            tuples = [tuple(t) for t in tuples]
            if not tuples:
                raise MalformedQueryError(
                    f"cannot infer arity of empty relation {name!r}; "
                    "use Relation(name, arity) and Database.add_relation"
                )
            rels.append(Relation(name, len(tuples[0]), tuples))
        return cls(rels, domain=domain)

    def add_relation(self, rel: Relation) -> None:
        """Register a relation; its values join the domain when the
        domain is next read."""
        if rel.name in self._relations:
            raise MalformedQueryError(f"duplicate relation name {rel.name!r}")
        self._relations[rel.name] = rel

    def add_domain_values(self, values: Iterable[Any]) -> None:
        """Add explicit domain values, after every relation value so far;
        each new one moves the fingerprint."""
        domain = self._synced_domain()
        before = len(domain)
        domain.update(dict.fromkeys(values))
        self._explicit += len(domain) - before

    def _synced_domain(self) -> Dict[Any, None]:
        """The domain dict, after merging the values of every relation
        whose version moved since it was last merged."""
        domain, synced = self._domain, self._synced
        for name, rel in self._relations.items():
            if synced.get(name) != rel.version:
                domain.update(dict.fromkeys(rel.domain_values()))
                synced[name] = rel.version
        return domain

    # ----------------------------------------------------------------- access

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaMismatchError(f"database has no relation named {name!r}") from None

    def relation_for(self, atom) -> Relation:
        """The relation ``atom`` names, checked against the atom's arity
        (a mismatch raises :class:`SchemaMismatchError`)."""
        rel = self.relation(atom.relation)
        if rel.arity != atom.arity:
            raise SchemaMismatchError(
                f"atom {atom!r} has arity {atom.arity} but relation "
                f"{atom.relation!r} has arity {rel.arity}"
            )
        return rel

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def relation_names(self) -> List[str]:
        return list(self._relations)

    def relations(self) -> List[Relation]:
        return list(self._relations.values())

    @property
    def domain(self) -> List[Any]:
        """The domain in a fixed (insertion) order — the linear order the
        RAM model assumes on the input encoding."""
        return list(self._synced_domain())

    def domain_size(self) -> int:
        return len(self._synced_domain())

    def __contains__(self, value: Any) -> bool:
        return value in self._synced_domain()

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __repr__(self) -> str:
        rels = ", ".join(f"{r.name}/{r.arity}:{len(r)}" for r in self._relations.values())
        return f"Database(|dom|={self.domain_size()}, {rels})"

    # ------------------------------------------------------------------ sizes

    def size(self) -> int:
        """||D|| as defined in Section 2.1 of the paper."""
        return (
            len(self._relations)
            + self.domain_size()
            + sum(r.size_contribution() for r in self._relations.values())
        )

    def tuple_count(self) -> int:
        """Total number of stored tuples across all relations."""
        return sum(len(r) for r in self._relations.values())

    # ----------------------------------------------------------------- degree

    def degrees(self) -> Dict[Any, int]:
        """Degree of every domain element (number of tuples containing it).

        An element occurring several times inside one tuple is counted once
        for that tuple, matching "the total number of tuples of relations
        R_i to which x belongs".
        """
        deg: Dict[Any, int] = dict.fromkeys(self._synced_domain(), 0)
        for rel in self._relations.values():
            for t in rel:
                for value in set(t):
                    deg[value] += 1
        return deg

    def degree(self) -> int:
        """deg(D) = max over elements of their degree (0 for empty domain)."""
        degs = self.degrees()
        return max(degs.values()) if degs else 0

    # ------------------------------------------------------------ fingerprint

    def fingerprint(self) -> Tuple:
        """A hashable snapshot identity for plan caching.

        Combines, per relation, its process-unique ``serial`` with its
        mutation ``version`` and cardinality, plus the number of explicit
        domain additions — equal fingerprints mean "the same relation
        objects in the same state".  A serial is never reused, so a
        fingerprint never matches another relation, dead or alive.
        Values that reach the domain through relations are covered by the
        versions, so taking a fingerprint never syncs the lazy domain.
        """
        return (
            self._explicit,
            tuple((name, rel.serial, rel.version, len(rel))
                  for name, rel in self._relations.items()),
        )

    # ------------------------------------------------------------------ misc

    def copy(self) -> "Database":
        db = Database(domain=self._synced_domain())
        for rel in self._relations.values():
            copied = rel.copy()
            db.add_relation(copied)
            db._synced[copied.name] = copied.version
        return db

    def restrict_domain(self, values: Iterable[Any]) -> "Database":
        """Induced substructure on ``values`` (keeps tuples fully inside)."""
        keep = set(values)
        rels = [Relation(rel.name, rel.arity,
                         [t for t in rel if keep.issuperset(t)])
                for rel in self._relations.values()]
        return Database(rels, domain=[v for v in self._synced_domain()
                                      if v in keep])
