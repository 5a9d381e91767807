"""Degree of relational structures (Section 3.1) and the low-degree
condition (Definition 3.8).

The degree of an element is the number of tuples (over all relations)
containing it; the degree of a structure is the maximum.  A class is of
*bounded degree* when a single constant bounds all members, and of *low
degree* when for every epsilon > 0 all large enough members have degree
at most |G|^epsilon.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.data.database import Database


def structure_degree(db: Database) -> int:
    """deg(D) (Section 3.1)."""
    return db.degree()


def is_degree_bounded(db: Database, bound: int) -> bool:
    """Membership witness for a bounded-degree class with constant
    ``bound``."""
    return db.degree() <= bound


def low_degree_epsilon(db: Database) -> float:
    """The smallest epsilon with deg(D) <= |Dom|^epsilon on this instance
    (log_n d).  A family is low-degree iff this tends to 0 along it."""
    n = max(db.domain_size(), 2)
    d = max(db.degree(), 1)
    return math.log(d) / math.log(n)


def is_low_degree_family(epsilons: Iterable[float], threshold: float = 0.5) -> bool:
    """Heuristic family check used in tests: the epsilon witnesses of a
    growing instance family are (eventually) decreasing and below
    ``threshold``."""
    values = list(epsilons)
    if not values:
        return False
    tail = values[len(values) // 2:]
    return all(e <= threshold for e in tail) and (
        len(values) < 2 or tail[-1] <= values[0] + 1e-9
    )
