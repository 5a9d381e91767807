"""Stateful property-based testing (hypothesis RuleBasedStateMachine):
drive a DynamicFreeConnexView, and the incrementally maintained count,
with arbitrary interleavings of inserts, deletes and reads, checking
them against from-scratch recomputation after every step."""

import random

import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import settings

from repro.core.plancache import clear_plan_cache, plan_cache
from repro.core.planner import count
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dynamic import DynamicFreeConnexView
from repro.dynamic.delta import TAIL_MIN
from repro.eval.naive import evaluate_cq_naive
from repro.logic.parser import parse_cq

VALUES = st.integers(0, 3)


def view_machine(text):
    """The state machine's test case for one query (relations of arity
    at most 2)."""
    query = parse_cq(text)
    arities = query.relation_arities()

    class DynamicViewMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.view = DynamicFreeConnexView(query, materialize=True)
            self.shadow = {name: set() for name in arities}
            self.prev_answers = set()

        def _tuple(self, name, values):
            return tuple(values[: arities[name]])

        @rule(name=st.sampled_from(sorted(arities)),
              values=st.tuples(VALUES, VALUES))
        def insert(self, name, values):
            tup = self._tuple(name, values)
            self.shadow[name].add(tup)
            self.view.insert(name, tup)

        @rule(name=st.sampled_from(sorted(arities)),
              values=st.tuples(VALUES, VALUES))
        def delete(self, name, values):
            tup = self._tuple(name, values)
            self.shadow[name].discard(tup)
            self.view.delete(name, tup)

        def _truth(self):
            rels = []
            for name, arity in arities.items():
                rels.append(Relation(name, arity, self.shadow[name]))
            db = Database(rels, domain=range(4))
            return evaluate_cq_naive(query, db)

        @rule()
        def check_deltas(self):
            truth = self._truth()
            added, removed = self.view.pop_changes()
            assert set(added) == truth - self.prev_answers
            assert set(removed) == self.prev_answers - truth
            self.prev_answers = truth

        @invariant()
        def answers_match_recomputation(self):
            truth = self._truth()
            assert self.view.answers() == truth
            assert self.view.count_answers() == len(truth)

    DynamicViewMachine.TestCase.settings = settings(
        max_examples=25, stateful_step_count=30, deadline=None)
    return DynamicViewMachine.TestCase


TestDynamicView = view_machine("Q(x, y) :- R(x, w), S(y, u), B(u)")
TestDynamicViewSelfJoin = view_machine("Q(x, y) :- R(x, w), R(y, u)")
TestDynamicViewChain = view_machine("Q(x) :- R(x, z), S(z, w), T(w, y)")


# ------------------------------------------------------ the maintained count

#: two more than the tail-merge floor of the count's key indexes
BATCH = TAIL_MIN + 2


def count_machine(text):
    """A state machine for the incrementally maintained count of one
    query: inserts and deletes interleave with counts on both engines,
    and every count must equal a cold count of a copy of the database,
    which no cached plan has seen."""
    query = parse_cq(text)
    arities = query.relation_arities()
    names = sorted(arities)

    class CountMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            clear_plan_cache()
            rng = random.Random(len(names))
            # enough rows that a batch of BATCH inserts is propagated
            # through the key indexes rather than recomputed
            self.db = Database([
                Relation(name, arity,
                         {tuple(rng.randrange(40) for _ in range(arity))
                          for _ in range(300)})
                for name, arity in arities.items()])
            self.fresh = 0
            self.counts = 0

        def _tuple(self, name, values):
            return tuple(values[: arities[name]])

        @rule(name=st.sampled_from(names),
              values=st.tuples(VALUES, VALUES, VALUES))
        def insert(self, name, values):
            self.db.relation(name).add(self._tuple(name, values))

        @rule(name=st.sampled_from(names), pick=st.integers(0, 10 ** 6))
        def delete(self, name, pick):
            rel = self.db.relation(name)
            if len(rel):
                rel.discard(rel.tuples()[pick % len(rel)])

        @rule(name=st.sampled_from(names),
              values=st.tuples(VALUES, VALUES, VALUES))
        def insert_fresh_value(self, name, values):
            """A value no relation held before: the code columns and the
            messages grow."""
            self.fresh += 1
            tup = (f"new-{self.fresh}",) + tuple(values)
            self.db.relation(name).add(self._tuple(name, tup))

        @rule(name=st.sampled_from(names),
              values=st.tuples(VALUES, VALUES, VALUES))
        def insert_then_discard(self, name, values):
            """Two ops that net to nothing within one refresh."""
            rel = self.db.relation(name)
            tup = (10 ** 6 + self.fresh,) + tuple(values)
            self.fresh += 1
            rel.add(self._tuple(name, tup))
            rel.discard(self._tuple(name, tup))

        @rule(name=st.sampled_from(names), seed=st.integers(0, 1000))
        def insert_batch(self, name, seed):
            """More inserts into one relation than an index tail holds."""
            rng = random.Random(seed)
            rel = self.db.relation(name)
            for _ in range(BATCH):
                rel.add(tuple(rng.randrange(40)
                              for _ in range(arities[name])))

        @invariant()
        def count_matches_cold(self):
            # alternate the engines: they share the maintained state
            self.counts += 1
            engine = ("tuple", "columnar")[self.counts % 2]
            warm = count(query, self.db, engine=engine)
            cold = count(query, self.db.copy(), engine=engine)
            assert warm == cold
            assert plan_cache().stats()["refresh_fallbacks"] == 0

    CountMachine.TestCase.settings = settings(
        max_examples=10, stateful_step_count=25, deadline=None)
    return CountMachine.TestCase


TestMaintainedCountPath = count_machine(
    "Q(x, y, z, w) :- R(x, y), S(y, z), T(z, w)")
TestMaintainedCountSelfJoin = count_machine("Q(x, y, z) :- R(x, y), R(y, z)")
TestMaintainedCountPairKey = count_machine(
    "Q(x, y, z) :- R(x, y, z), S(x, y)")
TestMaintainedCountConstant = count_machine("Q(x, y) :- R(x, 1), S(x, y)")
TestMaintainedCountRepeatedVariable = count_machine(
    "Q(x, y) :- R(x, x), S(x, y)")
