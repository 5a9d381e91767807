"""First-order queries over low-degree structures (Section 3.2,
Theorems 3.9 and 3.10).

A class has *low degree* (Definition 3.8) when degrees are eventually
below |G|^epsilon for every epsilon > 0 — e.g. graphs of degree
O(log n), such as the clique-plus-independent-set family of Section 3.2
(:func:`repro.data.generators.clique_plus_independent`).

The anchored local-pattern engine of
:mod:`repro.enumeration.bounded_degree` is exactly what these theorems
need: on a structure of degree d each anchor seed explores at most
d^{O(||phi||)} candidates, so

* model checking and counting run in O(||D|| * d^{O(||phi||)}) =
  O(||D||^{1 + O(epsilon)}) — *pseudo-linear* time (Theorem 3.9);
* the per-component match lists have pseudo-linear total size, after
  which enumeration proceeds with data-independent delay exactly as in
  the bounded-degree case (Theorem 3.10: constant delay after
  pseudo-linear preprocessing).

This module packages that reading: same algorithms, different
preprocessing-cost accounting, plus the degree diagnostics used by the
benchmarks to verify the pseudo-linear claim empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.database import Database
from repro.enumeration.bounded_degree import (
    BoundedDegreeEnumerator,
    Pattern,
    count_pattern,
    model_check_pattern,
)


class LowDegreeEnumerator(BoundedDegreeEnumerator):
    """Theorem 3.10: constant-delay enumeration after *pseudo-linear*
    preprocessing on low-degree classes.

    The algorithm is the anchored engine; only the cost analysis changes:
    preprocessing is O(||D|| * deg(D)^{O(||phi||)}), which is
    ||D||^{1+O(epsilon)} on a low-degree class.  The enumeration phase
    never touches the database again, so its delay is identical to the
    bounded-degree case.
    """


def decide_low_degree(pattern: Pattern, db: Database) -> bool:
    """Theorem 3.9: pseudo-linear model checking on low-degree classes."""
    return model_check_pattern(pattern, db)


def count_low_degree(pattern: Pattern, db: Database) -> int:
    """Counting analogue on low-degree classes (same engine)."""
    return count_pattern(pattern, db)


@dataclass
class DegreeProfile:
    """Degree diagnostics supporting the low-degree claim on an instance."""

    size: int
    degree: int
    epsilon_witness: float

    @classmethod
    def of(cls, db: Database) -> "DegreeProfile":
        import math

        n = max(db.domain_size(), 2)
        d = max(db.degree(), 1)
        return cls(size=n, degree=d, epsilon_witness=math.log(d, n))

    def is_low_degree_like(self, epsilon: float = 0.5) -> bool:
        """deg(D) <= |D|^epsilon on this instance."""
        return self.epsilon_witness <= epsilon
