"""Boolean matrix multiplication and the free-connex lower bound
(Section 4.1.2, Theorem 4.8, Example 4.7).

``Pi(x, y) = exists z A(x, z) /\\ B(z, y)`` *is* Boolean matrix
multiplication on the database D_BM encoding two matrices: the answer set
equals the non-zero entries of A x B.  Pi is acyclic but not free-connex,
and Theorem 4.8 says (assuming Mat-Mul) no constant-delay-after-linear-
preprocessing enumeration exists for it — because such an algorithm would
multiply matrices in O(n^2).

Example 4.7 generalises: any self-join-free non-free-connex ACQ can be
fed a database built from D_BM in linear time so that its answer set is
Pi(D_BM) x {bottom}^{m-2}.  :func:`example_47_database` implements the
paper's concrete instance.  The self-join-free restriction is the
*construction's* hypothesis, not a gap in the bound: a query with
self-joins is equivalent to its homomorphic core, and when the core is
not free-connex the Mat-Mul bound lifts to the query itself
(Carmeli-Segoufin, arXiv 2206.04988) — :mod:`repro.core.classify`
states those verdicts decisively via the ``effective_*`` facts.
"""

from __future__ import annotations

from typing import Any, List, Set, Tuple

import numpy as np

from repro.data.database import Database
from repro.data.generators import matrices_to_database
from repro.data.relation import Relation
from repro.logic.cq import ConjunctiveQuery
from repro.logic.parser import parse_cq

Matrix = List[List[int]]

BOTTOM = "_bottom_"


def bmm_query() -> ConjunctiveQuery:
    """Pi(x, y) = exists z A(x, z) /\\ B(z, y) — acyclic, not free-connex."""
    return parse_cq("Pi(x, y) :- A(x, z), B(z, y)")


def multiply_boolean_naive(a: Matrix, b: Matrix) -> Matrix:
    """Textbook O(n^3) Boolean product (with early exit per entry)."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        row = a[i]
        for j in range(n):
            for k in range(n):
                if row[k] and b[k][j]:
                    out[i][j] = 1
                    break
    return out


def multiply_boolean_numpy(a: Matrix, b: Matrix) -> Matrix:
    """The 'fast matrix multiplication' stand-in: numpy's optimised
    product (the role the Coppersmith-Winograd bound plays in the
    Mat-Mul hypothesis)."""
    prod = (np.array(a, dtype=np.uint8) @ np.array(b, dtype=np.uint8)) > 0
    return prod.astype(int).tolist()


def multiply_via_query(a: Matrix, b: Matrix, enumerator_factory=None) -> Matrix:
    """Compute A x B by enumerating Pi over D_BM.

    ``enumerator_factory(query, db)`` defaults to the linear-delay ACQ
    engine (the constant-delay engine refuses Pi — it is not free-connex,
    which is the point of Theorem 4.8).
    """
    if enumerator_factory is None:
        from repro.enumeration.acq_linear import LinearDelayACQEnumerator

        enumerator_factory = LinearDelayACQEnumerator
    n = len(a)
    db = matrices_to_database(a, b)
    query = bmm_query()
    out = [[0] * n for _ in range(n)]
    for i, j in enumerator_factory(query, db):
        out[i][j] = 1
    return out


# ----------------------------------------------------------- Example 4.7


def example_47_query() -> ConjunctiveQuery:
    """phi(x1, x2, x4) = exists x3 E(x2, x4) /\\ S(x1, x1, x3) /\\
    T(x3, x2, x4): self-join free, acyclic, NOT free-connex.

    The paper prints the first atom as E(x1, x4), which makes the
    hypergraph {x1,x4},{x1,x3},{x2,x3,x4} cyclic (triangle x1-x3-x4 after
    removing the lonely x2) — an evident typo, since Example 4.7 requires
    an *acyclic* query.  With E(x2, x4) the query is acyclic, not
    free-connex, and the encoding below yields exactly
    phi(D) = Pi(D_BM) x {bottom}."""
    return parse_cq("phi(x1, x2, x4) :- E(x2, x4), S(x1, x1, x3), T(x3, x2, x4)")


def example_47_database(a: Matrix, b: Matrix) -> Database:
    """The linear-time encoding of Example 4.7:
    E = {(i, bottom)}, S = {(i, i, k) : A[i][k] = 1},
    T = {(k, j, bottom) : B[k][j] = 1}; then
    phi(D) = {(i, j, bottom) : (A x B)[i][j] = 1}."""
    n = len(a)
    e = Relation("E", 2)
    s = Relation("S", 3)
    t = Relation("T", 3)
    for i in range(n):
        e.add((i, BOTTOM))
        for k in range(n):
            if a[i][k]:
                s.add((i, i, k))
            if b[i][k]:
                t.add((i, k, BOTTOM))
    db = Database([e, s, t])
    db.add_domain_values(range(n))
    return db


def product_from_example_47_answers(answers: Set[Tuple[Any, ...]], n: int) -> Matrix:
    """Strip the bottom column: answers (i, j, bottom) -> product matrix."""
    out = [[0] * n for _ in range(n)]
    for i, j, bottom in answers:
        assert bottom == BOTTOM
        out[i][j] = 1
    return out
