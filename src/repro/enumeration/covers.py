"""Covers of tables (Definitions 4.16-4.19) — the combinatorial core of
quantifier elimination in the presence of disequalities (Section 4.3).

A *table* is a pair (E, f) with E a finite set and f = (f_1, ..., f_k) a
tuple of functions E -> F.  A *cover* is a tuple c in (F + {GAP})^k such
that every x in E is "hit": c_i = f_i(x) for some i.  Covers are ordered
by generality (GAP is more general than any value); the key combinatorial
facts the paper uses are

* |min-covers(E, f)| <= k!          (at most k! minimal covers), and
* there is a representative subset E' <= E with covers(E', f) =
  covers(E, f) and |E'| = O(k!).

Intuition: a disequality constraint "exists z in E avoiding the values
f'(x)" fails exactly when the tuple f'(x) covers the table of candidate
witnesses; minimal covers and representative sets compress that test to a
query-size object, which is what lets disequalities be eliminated without
touching the data more than linearly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)


class _Gap:
    """The 'blank' cover entry (written ⊔ in the paper)."""

    _instance: Optional["_Gap"] = None

    def __new__(cls) -> "_Gap":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "GAP"


GAP = _Gap()

Cover = Tuple[Any, ...]


@dataclass
class Table:
    """A table (E, f): rows indexed by elements, k value columns.

    ``rows`` maps each element of E to its tuple (f_1(x), ..., f_k(x)).
    """

    rows: Dict[Hashable, Tuple[Any, ...]]
    k: int

    @classmethod
    def from_functions(cls, elements: Iterable[Hashable],
                       functions: Sequence[Callable[[Any], Any]]) -> "Table":
        functions = list(functions)
        rows = {x: tuple(f(x) for f in functions) for x in elements}
        return cls(rows, len(functions))

    @classmethod
    def from_rows(cls, rows: Dict[Hashable, Tuple[Any, ...]]) -> "Table":
        k = len(next(iter(rows.values()))) if rows else 0
        for r in rows.values():
            if len(r) != k:
                raise ValueError("ragged table rows")
        return cls(dict(rows), k)

    def elements(self) -> List[Hashable]:
        return list(self.rows)

    def restrict(self, elements: Iterable[Hashable]) -> "Table":
        elems = set(elements)
        return Table({x: r for x, r in self.rows.items() if x in elems}, self.k)

    def column_values(self, i: int) -> Set[Any]:
        return {r[i] for r in self.rows.values()}

    def __len__(self) -> int:
        return len(self.rows)


def is_cover(table: Table, cover: Sequence[Any]) -> bool:
    """Definition 4.16: every element is hit in some coordinate."""
    if len(cover) != table.k:
        raise ValueError(f"cover length {len(cover)} != k = {table.k}")
    for row in table.rows.values():
        if not any(c is not GAP and c == v for c, v in zip(cover, row)):
            return False
    return True


def more_general(c_prime: Sequence[Any], c: Sequence[Any]) -> bool:
    """Definition 4.17: c' <= c — every coordinate equal or GAP in c'."""
    return all(cp is GAP or cp == cv for cp, cv in zip(c_prime, c))


def minimal_covers(table: Table) -> List[Cover]:
    """The set of minimal covers of (E, f); |result| <= k! (paper, Sec 4.3).

    Recursion from the paper: fix any a in E; every cover must hit a, i.e.
    use c_i = f_i(a) for some i, and the rest must cover
    E_i^a = {x : f_i(x) != f_i(a)} in the remaining coordinates.
    """
    def rec(rows: Dict[Hashable, Tuple[Any, ...]], columns: Tuple[int, ...]
            ) -> List[Dict[int, Any]]:
        # returns partial covers as {column index: value}; missing = GAP
        if not rows:
            return [{}]
        a = next(iter(rows))
        row_a = rows[a]
        out: List[Dict[int, Any]] = []
        for pos, col in enumerate(columns):
            value = row_a[col]
            remaining_cols = columns[:pos] + columns[pos + 1:]
            survivors = {x: r for x, r in rows.items() if r[col] != value}
            for partial in rec(survivors, remaining_cols):
                partial = dict(partial)
                partial[col] = value
                out.append(partial)
        return out

    raw = rec(table.rows, tuple(range(table.k)))
    covers = {tuple(p.get(i, GAP) for i in range(table.k)) for p in raw}
    # filter to minimal ones
    minimal = [
        c for c in covers
        if not any(other != c and more_general(other, c) for other in covers)
    ]
    minimal.sort(key=lambda c: tuple(repr(v) for v in c))
    return minimal


def all_covers(table: Table, value_pool: Optional[Sequence[Set[Any]]] = None
               ) -> Set[Cover]:
    """All covers with coordinates drawn from the table's own columns
    (plus GAP) — exponential, used in tests to validate the minimal-cover
    recursion and Example 4.19.

    ``value_pool`` optionally widens the per-coordinate candidate values.
    """
    from itertools import product

    pools: List[List[Any]] = []
    for i in range(table.k):
        values = set(table.column_values(i))
        if value_pool is not None:
            values |= value_pool[i]
        pools.append([GAP] + sorted(values, key=repr))
    return {c for c in product(*pools) if is_cover(table, c)}


def representative_set(table: Table) -> List[Hashable]:
    """A subset E' with covers(E', f) = covers(E, f), |E'| = O(k!).

    Recursive choice mirroring the minimal-cover recursion: pick any a,
    keep it, and recurse on each E_i^a with coordinate i discarded.
    """
    def rec(rows: Dict[Hashable, Tuple[Any, ...]], columns: Tuple[int, ...]
            ) -> Set[Hashable]:
        if not rows:
            return set()
        if not columns:
            # no coordinates left: a non-empty residue has no covers at all,
            # and one witness row is needed to preserve that fact
            return {next(iter(rows))}
        a = next(iter(rows))
        row_a = rows[a]
        chosen: Set[Hashable] = {a}
        for pos, col in enumerate(columns):
            survivors = {x: r for x, r in rows.items() if r[col] != row_a[col]}
            chosen |= rec(survivors, columns[:pos] + columns[pos + 1:])
        return chosen

    keep = rec(table.rows, tuple(range(table.k)))
    return [x for x in table.rows if x in keep]


def covers_equal(table: Table, subset: Iterable[Hashable]) -> bool:
    """Check the defining property of a representative set (test helper):
    the subset has exactly the same covers, over the full table's value
    pool, as the whole table."""
    sub = table.restrict(subset)
    pool = [table.column_values(i) for i in range(table.k)]
    return all_covers(table, value_pool=pool) == all_covers(sub, value_pool=pool)


def excludes_all(table: Table, forbidden: Sequence[Any]) -> bool:
    """Is there an element x with f_i(x) != forbidden_i for every i?

    This is the semantic test disequality elimination needs ("exists z in
    E avoiding the values"), and it equals 'forbidden is NOT a cover'.
    """
    return not is_cover(table, list(forbidden))
