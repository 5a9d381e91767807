"""Linear-delay enumeration of arbitrary ACQs — Algorithm 2 (Theorem 4.3).

The recursion of the paper's Algorithm 2: with head (x_1, ..., x_p),

* compute the values ``a`` of x_1 occurring in answers — after a full
  semijoin reduction these are exactly the x_1-projections of any reduced
  atom containing x_1 (one linear pass);
* for each such ``a``, recurse on phi_a = phi(a, x_2, ..., x_p), the query
  with x_1 instantiated (still acyclic: instantiating deletes a vertex
  from every hyperedge, and vertex deletion preserves alpha-acyclicity —
  take a join tree and erase the vertex from every node label).

Each recursion level costs one full reduction, i.e. O(||phi|| * ||D||)
work between consecutive answers: *linear-time delay*, the bound of
Theorem 4.3.  The benchmark suite contrasts this growing delay with the
flat delay of the free-connex engine.
"""

from __future__ import annotations

from typing import Any, Iterator, List

from repro import obs
from repro.data.database import Database
from repro.enumeration.base import Answer, Enumerator
from repro.errors import NotAcyclicError, UnsupportedQueryError
from repro.eval.yannakakis import full_reducer
from repro.logic.cq import ConjunctiveQuery


def _head_variable_values(cq: ConjunctiveQuery, db: Database,
                          engine=None) -> List[Any]:
    """Values of the first head variable occurring in some answer.

    One full reduction; afterwards every tuple of every atom extends to a
    satisfying assignment, so projecting any atom containing x_1 yields
    exactly the answer values of x_1.
    """
    x1 = cq.head[0]
    obs.count("acq_linear.reductions")
    _tree, reduced = full_reducer(cq, db, engine=engine)
    for i, atom in enumerate(cq.atoms):
        if x1 in atom.variable_set():
            return [t[0] for t in reduced[i].project((x1,))]
    raise UnsupportedQueryError(f"head variable {x1!r} occurs in no atom of {cq!r}")


class LinearDelayACQEnumerator(Enumerator):
    """Algorithm 2: enumerate any acyclic CQ with linear-time delay."""

    def __init__(self, cq: ConjunctiveQuery, db: Database, engine=None):
        super().__init__()
        if cq.has_comparisons():
            raise UnsupportedQueryError(
                "Algorithm 2 handles pure ACQs; use the disequality engine "
                "for comparison atoms"
            )
        if not cq.is_acyclic():
            raise NotAcyclicError(f"query {cq!r} is not acyclic")
        self.cq = cq
        self.db = db
        self.engine = engine
        self._first_values: List[Any] = []

    def _preprocess(self) -> None:
        if not self.cq.is_boolean():
            self._first_values = _head_variable_values(self.cq, self.db,
                                                       engine=self.engine)

    def _enumerate(self) -> Iterator[Answer]:
        cq, db = self.cq, self.db
        if cq.is_boolean():
            from repro.eval.yannakakis import yannakakis_boolean

            if yannakakis_boolean(cq, db):
                yield ()
            return
        yield from self._enumerate_from(cq, self._first_values)

    def _enumerate_from(self, cq: ConjunctiveQuery, values: List[Any]
                        ) -> Iterator[Answer]:
        if cq.arity == 1:
            for a in values:
                yield (a,)
            return
        x1 = cq.head[0]
        for a in values:
            sub = cq.substitute({x1: a})
            sub_values = _head_variable_values(sub, self.db,
                                               engine=self.engine)
            for rest in self._enumerate_from(sub, sub_values):
                yield (a,) + rest
