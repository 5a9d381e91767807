"""Stateful property-based testing (hypothesis RuleBasedStateMachine):
drive a DynamicFreeConnexView with arbitrary interleavings of inserts,
deletes and reads, checking it against from-scratch recomputation after
every step."""

import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import settings

from repro.data.database import Database
from repro.data.relation import Relation
from repro.dynamic import DynamicFreeConnexView
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
