"""Unit + randomized integration tests for the evaluation engines:
naive CQ/FO evaluation, Yannakakis (Theorem 4.2), model checking."""

import gc
import random
import weakref

import pytest

from repro.counting.acq_count import count_cq_naive
from repro.data import generators
from repro.data.database import Database
from repro.errors import NotAcyclicError, UnsupportedQueryError
from repro.eval.join import VarRelation
from repro.eval.modelcheck import model_check
from repro.eval.naive import (
    cq_is_satisfiable_naive,
    evaluate_cq_naive,
    evaluate_fo,
    fo_answers,
    model_check_fo,
    satisfying_assignments,
)
from repro.eval.yannakakis import (
    acyclic_answers,
    full_reducer,
    yannakakis,
    yannakakis_boolean,
)
from repro.logic.fo import And, Exists, ForAll, Not, Or, RelAtom
from repro.logic.parser import parse_cq
from repro.logic.terms import Variable


def test_naive_simple_join(small_db):
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    assert (1, 10) in evaluate_cq_naive(q, small_db)


def test_naive_respects_comparisons(small_db):
    q = parse_cq("Q(x, y) :- R(x, y), x < y")
    got = evaluate_cq_naive(q, small_db)
    assert got == {t for t in small_db.relation("R") if t[0] < t[1]}


def test_naive_boolean(small_db):
    assert cq_is_satisfiable_naive(parse_cq("Q() :- R(x, y), S(y, z)"), small_db)
    assert not cq_is_satisfiable_naive(parse_cq("Q() :- R(x, x)"), small_db)


def test_satisfying_assignments_bind_all_variables(small_db):
    q = parse_cq("Q(x) :- R(x, z)")
    for a in satisfying_assignments(q, small_db):
        assert set(a) == {Variable("x"), Variable("z")}


def test_yannakakis_matches_naive_randomized():
    rng = random.Random(0)
    queries = [
        "Q(x, y) :- R(x, z), S(z, y)",
        "Q(x) :- R(x, z), S(z, y), T(y, w)",
        "Q(a, b, c) :- T(a, b, w), R(w, c)",
        "Q() :- R(x, y), S(y, z)",
        "Q(x) :- R(x, x)",
    ]
    for text in queries:
        q = parse_cq(text)
        for seed in range(4):
            db = generators.random_database(
                {"R": 2, "S": 2, "T": q.relation_arities().get("T", 2)},
                6, 12, seed=rng.randrange(10**6))
            assert acyclic_answers(q, db) == evaluate_cq_naive(q, db), (text, seed)


def test_yannakakis_boolean_matches(small_db):
    q = parse_cq("Q() :- R(x, z), S(z, y)")
    assert yannakakis_boolean(q, small_db) == cq_is_satisfiable_naive(q, small_db)
    q2 = parse_cq("Q() :- R(x, z), S(z, y), B(y)")
    db = small_db.copy()
    from repro.data.relation import Relation

    db.add_relation(Relation("B", 1))  # empty relation
    assert not yannakakis_boolean(q2, db)


def test_yannakakis_raises_on_cyclic(small_db):
    q = parse_cq("Q(x) :- R(x, y), S(y, z), R(z, x)")
    with pytest.raises(NotAcyclicError):
        yannakakis(q, small_db)


def test_full_reducer_global_consistency(small_db):
    """After full reduction every remaining tuple participates in some
    satisfying assignment (the global-consistency invariant)."""
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    _tree, reduced = full_reducer(q, small_db)
    assignments = list(satisfying_assignments(q, small_db))
    for rel, atom in zip(reduced, q.atoms):
        for t in rel:
            binding = dict(zip(rel.variables, t))
            assert any(
                all(a[v] == binding[v] for v in rel.variables)
                for a in assignments
            ), (atom, t)


def test_full_reducer_empties_on_unsatisfiable():
    db = Database.from_relations({"R": [(1, 2)], "S": [(9, 9)]})
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    _tree, reduced = full_reducer(q, db)
    assert all(len(r) == 0 for r in reduced)


def test_yannakakis_column_order_matches_head():
    db = Database.from_relations({"R": [(1, 2)], "S": [(2, 3)]})
    q = parse_cq("Q(y, x) :- R(x, z), S(z, y)")
    assert set(yannakakis(q, db)) == {(3, 1)}


# ---------------------------------------------------------------- FO engine


def test_fo_quantifiers(small_db):
    x, y = Variable("x"), Variable("y")
    # every R-source has an S-continuation?
    f = ForAll([x, y], Or(Not(RelAtom("R", [x, y])),
                          Exists(["w"], RelAtom("S", [y, "w"]))))
    assert model_check_fo(f, small_db)


def test_fo_evaluation_with_assignment(small_db):
    x = Variable("x")
    f = Exists(["y"], RelAtom("R", [x, "y"]))
    assert evaluate_fo(f, small_db, {x: 1})
    assert not evaluate_fo(f, small_db, {x: 40})


def test_fo_answers_matches_cq(small_db):
    from repro.logic.fo import cq_to_fo

    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    assert fo_answers(cq_to_fo(q), small_db) == evaluate_cq_naive(q, small_db)


def _fo_sentence():
    x, y = Variable("x"), Variable("y")
    return ForAll([x, y], Or(Not(RelAtom("R", [x, y])),
                             Exists(["w"], RelAtom("S", [y, "w"]))))


NAIVE_ENTRY_POINTS = {
    "evaluate_cq_naive": lambda db: evaluate_cq_naive(
        parse_cq("Q(x, y) :- R(x, z), S(z, y)"), db),
    "count_cq_naive": lambda db: count_cq_naive(
        parse_cq("Q(x) :- R(x, z), S(z, y)"), db),
    "cq_is_satisfiable_naive": lambda db: cq_is_satisfiable_naive(
        parse_cq("Q() :- R(x, z), S(z, y)"), db),
    "model_check_fo": lambda db: model_check_fo(_fo_sentence(), db),
    "fo_answers": lambda db: fo_answers(
        Exists(["y"], RelAtom("R", [Variable("x"), "y"])), db),
}


@pytest.mark.parametrize("entry", sorted(NAIVE_ENTRY_POINTS))
def test_naive_evaluation_frees_its_database(entry):
    """The naive evaluators recurse through module-level functions, so
    no reference cycle outlives a call: with the collector off, the
    database dies with its last reference."""
    db = Database.from_relations({
        "R": [(1, 2), (2, 3), (3, 4), (1, 3)],
        "S": [(2, 10), (3, 30), (4, 40), (3, 10)],
    })
    gc.disable()
    try:
        assert NAIVE_ENTRY_POINTS[entry](db)
        alive = weakref.ref(db)
        del db
        assert alive() is None
    finally:
        gc.enable()


def test_model_check_requires_sentence(small_db):
    with pytest.raises(UnsupportedQueryError):
        model_check_fo(RelAtom("R", ["x", "y"]), small_db)


def test_unbound_variable_raises(small_db):
    with pytest.raises(UnsupportedQueryError):
        evaluate_fo(RelAtom("R", ["x", "y"]), small_db, {})


# ------------------------------------------------------------- dispatcher


def test_model_check_dispatch(small_db):
    assert model_check(parse_cq("Q() :- R(x, z), S(z, y)"), small_db)
    cyclic = parse_cq("Q() :- R(x, y), R(y, z), R(z, x)")
    db = generators.graph_database([(1, 2), (2, 3), (3, 1)], edge_name="R")
    assert model_check(cyclic, db)
    with pytest.raises(UnsupportedQueryError):
        model_check(parse_cq("Q(x) :- R(x, y)"), small_db)


def test_model_check_ucq(small_db):
    from repro.logic.parser import parse_query

    u = parse_query("Q() :- R(x, x); Q() :- S(x, y)")
    assert model_check(u, small_db)  # second disjunct holds


def test_model_check_ncq():
    from repro.logic.parser import parse_query

    db = Database.from_relations({"R": [(0, 0)]}, domain=[0, 1])
    q = parse_query("Q() :- not R(x, y)")
    assert model_check(q, db)  # e.g. x=0, y=1 avoids the forbidden tuple


def test_model_check_fo_formula(small_db):
    f = Exists(["x", "y"], RelAtom("R", ["x", "y"]))
    assert model_check(f, small_db)
