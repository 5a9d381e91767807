"""Enumeration of unions of conjunctive queries (Section 4.2, Theorem 4.13).

The tractable case: every disjunct admits a *free-connex union extension*
(Definition 4.12).  The engine then

1. finds, per disjunct, a free-connex extension phi_i^+ with fresh atoms
   P_j(V_j) whose variables are provided by other disjuncts
   (:mod:`repro.hypergraph.unionext`);
2. materialises each P_j: the provider phi_j is S-connex for the relevant
   S <= free(phi_j), so the projection pi_S(phi_j(D)) is itself a
   free-connex query, enumerated by the constant-delay engine and
   transported along the body homomorphism h (coordinates with several
   h-preimages contribute only when the preimages agree — disagreeing
   projections correspond to no answer of the target and are never
   needed);
3. enumerates each extended (free-connex!) disjunct with the
   constant-delay engine, interleaving disjuncts round-robin and skipping
   duplicates with a hash set.

Each answer is produced by at most k = #disjuncts streams, so the
interleaved delay is O(k) enumeration steps per fresh answer: constant
*amortised* delay.  (The paper's Constant-Delay_lin definition restricts
extra memory to query-size; the duplicate set here uses output-size
memory — the standard practical relaxation, also used by [22]'s
Cheater's-Lemma-based variants.  EXPERIMENTS.md records this deviation.)
"""

from __future__ import annotations

from typing import Any, Iterator, List, Set, Tuple

from repro import obs
from repro.data.database import Database
from repro.data.relation import Relation
from repro.enumeration.base import Answer, Enumerator
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.errors import NotFreeConnexError, UnsupportedQueryError
from repro.hypergraph.unionext import (
    ProvidedSet,
    union_extension_plan,
)
from repro.logic.ucq import UnionOfConjunctiveQueries


def _materialise_provided(db: Database, ucq: UnionOfConjunctiveQueries,
                          prov: ProvidedSet,
                          provider_query=None, engine=None) -> Relation:
    """The fresh relation interpreting P(prov.variables).

    Contents: for each answer of the provider projected onto S (computed
    by the free-connex engine — the provider is S-connex, so the S-headed
    body is free-connex), transport values along h onto prov.variables.

    ``provider_query`` overrides the original disjunct when the provided
    set comes from a resolved union *extension* (Definition 4.12's
    recursive clause); ``db`` must then already hold that extension's
    fresh relations.
    """
    with obs.span("ucq.materialise_provided", provider=prov.provider_index):
        provider = provider_query if provider_query is not None \
            else ucq.disjuncts[prov.provider_index]
        hom = prov.hom_dict()
        s_ordered = tuple(sorted(prov.s_vars, key=lambda v: v.name))
        enum = FreeConnexEnumerator(provider.with_head(s_ordered), db,
                                    engine=engine)
        # for each output coordinate, the provider variables mapping onto it
        preimages: List[Tuple[int, ...]] = []
        for v in prov.variables:
            idxs = tuple(i for i, u in enumerate(s_ordered) if hom[u] is v)
            if not idxs:
                raise UnsupportedQueryError(
                    f"provided variable {v!r} has no preimage in S — "
                    "invalid plan")
            preimages.append(idxs)
        rel = Relation(f"__prov_{prov.provider_index}", len(prov.variables))
        for tup in enum:
            out: List[Any] = []
            ok = True
            for idxs in preimages:
                vals = {tup[i] for i in idxs}
                if len(vals) != 1:
                    ok = False
                    break
                out.append(tup[idxs[0]])
            if ok:
                rel.add(tuple(out))
        return rel


class UCQEnumerator(Enumerator):
    """Round-robin, deduplicated enumeration of a UCQ whose disjuncts all
    admit free-connex union extensions."""

    def __init__(self, ucq: UnionOfConjunctiveQueries, db: Database,
                 engine=None):
        super().__init__()
        self.ucq = ucq
        self.db = db
        self.engine = engine
        self._streams: List[Iterator[Answer]] = []

    def _preprocess(self) -> None:
        plan = union_extension_plan(self.ucq)
        if plan is None:
            raise NotFreeConnexError(
                f"{self.ucq!r} has a disjunct with no free-connex union "
                "extension; constant-delay enumeration is not known for it"
            )
        self._streams = []
        # one shared database accumulating every fresh relation; resolve in
        # rank order so a recursive provider's fresh relations exist before
        # its consumers need them (Definition 4.12's recursion)
        shared_db = self.db.copy()
        enumerators = [None] * len(plan)
        for ext_index in sorted(range(len(plan)), key=lambda i: plan[i].rank):
            ext = plan[ext_index]
            for name, prov in ext.fresh.items():
                provider_query = None
                if prov.from_extension:
                    provider_query = plan[prov.provider_index].extended
                rel = _materialise_provided(shared_db, self.ucq, prov,
                                            provider_query=provider_query,
                                            engine=self.engine)
                rel.name = name
                shared_db.add_relation(rel)
            enum = FreeConnexEnumerator(ext.extended, shared_db,
                                        engine=self.engine)
            enum.preprocess()
            enumerators[ext_index] = enum
        self._streams = [e._enumerate() for e in enumerators]

    def _enumerate(self) -> Iterator[Answer]:
        seen: Set[Answer] = set()
        streams = list(self._streams)
        while streams:
            alive: List[Iterator[Answer]] = []
            for stream in streams:
                try:
                    tup = next(stream)
                except StopIteration:
                    continue
                alive.append(stream)
                if tup not in seen:
                    seen.add(tup)
                    yield tup
                else:
                    obs.count("ucq.duplicates_skipped")
            streams = alive


class MaterialisedUnionEnumerator(Enumerator):
    """Baseline: evaluate every disjunct to completion (via Yannakakis or
    naive), union the sets, then emit — correct for any UCQ, used as the
    ablation baseline A3 and the fallback for intractable unions."""

    def __init__(self, ucq: UnionOfConjunctiveQueries, db: Database):
        super().__init__()
        self.ucq = ucq
        self.db = db
        self._answers: List[Answer] = []

    def _preprocess(self) -> None:
        from repro.eval.naive import evaluate_cq_naive
        from repro.eval.yannakakis import acyclic_answers

        union: Set[Answer] = set()
        for d in self.ucq.disjuncts:
            if not d.has_comparisons() and d.is_acyclic():
                union |= acyclic_answers(d, self.db)
            else:
                union |= evaluate_cq_naive(d, self.db)
        self._answers = sorted(union, key=repr)

    def _enumerate(self) -> Iterator[Answer]:
        yield from self._answers


def enumerate_ucq(ucq: UnionOfConjunctiveQueries, db: Database,
                  engine=None) -> Enumerator:
    """Best applicable engine for a UCQ."""
    try:
        enum = UCQEnumerator(ucq, db, engine=engine)
        enum.preprocess()
        return enum
    except (NotFreeConnexError, UnsupportedQueryError):
        return MaterialisedUnionEnumerator(ucq, db)
