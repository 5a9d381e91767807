"""Constant-delay enumeration of free-connex ACQs (Theorem 4.6).

Preprocessing (all linear in ||D|| for a fixed query):

1. check free-connexity (quantified star size <= 1, Definition 4.26);
2. run the full reducer over a join tree of the query — afterwards every
   remaining tuple of every atom participates in a full answer;
3. derive the join over the free variables
   (:func:`repro.eval.yannakakis.free_join`, which star-size counting
   shares): atoms entirely over free variables keep their reduced
   relations (the psi_0 part of Section 4.4), and each S-component with
   free part F_i — S = free variables — contributes
   P_i = pi_{F_i}(phi(D)).  Star size 1 plus conformality of acyclic
   hypergraphs guarantees some atom's variable set contains F_i, so P_i
   is that atom's reduced relation projected onto F_i.

Because quantified variables never cross S-components,

    phi(D)  =  join of the P_i,

a quantifier-free acyclic full join over the free variables — the
"only the join R(x1,x2) /\\ S'(x2,x3) remains" step of Figure 1 — which
:class:`~repro.enumeration.full_acyclic.FullJoinEnumerator` emits with
delay independent of ||D||.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro import obs
from repro.data.database import Database
from repro.enumeration.base import Answer, Enumerator
from repro.enumeration.full_acyclic import FullJoinEnumerator
from repro.errors import NotFreeConnexError, UnsupportedQueryError
from repro.eval.join import VarRelation
from repro.eval.yannakakis import free_join, full_reducer
from repro.logic.cq import ConjunctiveQuery


def derive_free_join(cq: ConjunctiveQuery, db: Database,
                     engine=None) -> Optional[List[VarRelation]]:
    """The derived quantifier-free join: relations over free variables
    whose natural join equals phi(D), or None when phi(D) is empty
    (:func:`repro.eval.yannakakis.free_join`).  Raises
    NotFreeConnexError if the query is not free-connex.

    The preprocessing bulk work (materialisation, full reduction,
    projections) runs on the selected backend; the returned relations
    keep that representation (both satisfy the enumerator's probe
    interface).  An empty list is possible for satisfiable Boolean
    queries: there is nothing left to join and the query is true."""
    if not cq.is_free_connex():
        raise NotFreeConnexError(f"query {cq!r} is not free-connex")
    _tree, reduced = full_reducer(cq, db, engine=engine)
    return free_join(cq, reduced)


class FreeConnexEnumerator(Enumerator):
    """Linear-preprocessing, constant-delay enumeration of a free-connex
    acyclic conjunctive query (without comparisons)."""

    def __init__(self, cq: ConjunctiveQuery, db: Database, engine=None):
        super().__init__()
        if cq.has_comparisons():
            raise UnsupportedQueryError(
                "use DisequalityEnumerator for queries with comparison atoms"
            )
        if not cq.is_acyclic():
            raise NotFreeConnexError(f"query {cq!r} is not acyclic")
        self.cq = cq
        self.db = db
        self.engine = engine
        self._inner: Optional[FullJoinEnumerator] = None
        self._boolean_true = False

    def _preprocess(self) -> None:
        # the whole preprocessing output (Boolean verdict or a prepared
        # inner enumerator) is plan-cached: a preprocessed
        # FullJoinEnumerator is immutable and restartable, so repeated
        # queries against an unchanged database skip reduction,
        # projection and probe-structure builds entirely
        from repro.core.plancache import cached_plan
        from repro.engine import resolve_engine

        eng = resolve_engine(self.engine)
        kind, payload = cached_plan("free_connex", self.cq, self.db,
                                    eng.name, self._build_plan)
        if kind == "bool":
            self._boolean_true = payload
        else:
            self._inner = payload
            if payload is not None:
                # a cached plan may predate values interned since
                payload.warm_decode_table()

    def _build_plan(self):
        cq, db = self.cq, self.db
        with obs.span("free_connex.derive_join"):
            derived = derive_free_join(cq, db, engine=self.engine)
        if cq.is_boolean():
            return ("bool", derived is not None)
        if derived is None:
            return ("enum", None)
        # each derived relation projects phi(D)'s assignments, so the
        # join is globally consistent already: no second reduction
        inner = FullJoinEnumerator(derived, self.cq.head, reduce=False)
        inner.preprocess()
        return ("enum", inner)

    def _blocks(self) -> Iterator[List[Answer]]:
        """The inner join's blocks: the batched pipeline's own on the
        columnar engine, the chunked probe join on the tuple engine."""
        if self._inner is None:  # a Boolean query, or no answers
            return super()._blocks()
        return self._inner._blocks()

    def _enumerate(self) -> Iterator[Answer]:
        if self.cq.is_boolean():
            if self._boolean_true:
                yield ()
            return
        if self._inner is None:
            return
        yield from self._inner._enumerate()
