"""Adversarial / failure-injection tests: odd domains, empty relations,
mixed value types, degenerate queries — every engine must stay correct
or fail loudly with the library's own exceptions."""

import pytest

from repro.core.planner import answer, count, decide, enumerate_answers
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import use_engine
from repro.errors import ReproError, SchemaMismatchError
from repro.eval.naive import evaluate_cq_naive
from repro.logic.parser import parse_cq, parse_query


def test_string_and_tuple_domains():
    db = Database.from_relations({
        "R": [("a", ("x", 1)), ("b", ("y", 2))],
        "S": [(("x", 1), 3.5)],
    })
    q = parse_cq("Q(u) :- R(u, m), S(m, w)")
    assert answer(q, db) == {("a",)}
    assert count(q, db) == 1


def test_mixed_value_types_in_one_column():
    db = Database.from_relations({"R": [(1, "one"), ("two", 2)]})
    q = parse_cq("Q(x, y) :- R(x, y)")
    assert answer(q, db) == {(1, "one"), ("two", 2)}


def test_unicode_values():
    db = Database.from_relations({"R": [("héllo", "wörld")]})
    q = parse_cq("Q(x) :- R(x, y)")
    assert answer(q, db) == {("héllo",)}


def test_empty_relations_everywhere():
    db = Database([Relation("R", 2), Relation("S", 2)], domain=[1, 2])
    for text in ["Q(x) :- R(x, z), S(z, y)",
                 "Q(x, y) :- R(x, z), S(z, y)",
                 "Q() :- R(x, y)"]:
        q = parse_cq(text)
        assert answer(q, db) == set()
        assert count(q, db) == 0
        if q.is_boolean():
            assert not decide(q, db)


def test_missing_relation_raises_schema_error():
    db = Database.from_relations({"R": [(1, 2)]})
    q = parse_cq("Q(x) :- R(x, y), Nope(y)")
    with pytest.raises(SchemaMismatchError):
        answer(q, db)


def test_arity_mismatch_raises():
    db = Database.from_relations({"R": [(1, 2)]})
    q = parse_cq("Q(x) :- R(x, y, z)")
    with pytest.raises(ReproError):
        answer(q, db)


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
@pytest.mark.parametrize("written", [False, True])
@pytest.mark.parametrize("terms", ["x", "x, y, z"],
                         ids=["too-few", "too-many"])
@pytest.mark.parametrize("task", ["answer", "count", "decide", "enumerate"])
def test_arity_mismatch_raises_on_every_path(engine, written, terms, task):
    """Too few or too many terms is a schema error on every task, also
    on the first run after a write, where a count that keeps a
    maintained state would seed it from the relations."""
    db = Database.from_relations({"R": [(1, 2), (3, 4)]})
    head = "" if task == "decide" else "x"
    q = parse_cq(f"Q({head}) :- R({terms})")
    run = {"answer": answer, "count": count, "decide": decide,
           "enumerate": lambda q, db: list(enumerate_answers(q, db))}[task]
    with use_engine(engine):
        with pytest.raises(SchemaMismatchError):
            run(q, db)
        if written:
            db.relation("R").add((5, 6))
            with pytest.raises(SchemaMismatchError):
                run(q, db)


def test_singleton_domain():
    db = Database.from_relations({"R": [(0, 0)]})
    q = parse_cq("Q(x) :- R(x, y), R(y, x)")
    assert answer(q, db) == {(0,)}


def test_wide_tuples():
    wide = tuple(range(9))
    db = Database.from_relations({"W": [wide]})
    q = parse_cq("Q(a, i) :- W(a, b, c, d, e, f, g, h, i)")
    assert answer(q, db) == {(0, 8)}


def test_all_constants_atom():
    db = Database.from_relations({"R": [(1, 2)], "S": [(5,)]})
    yes = parse_cq("Q(x) :- S(x), R(1, 2)")
    assert answer(yes, db) == {(5,)}
    no = parse_cq("Q(x) :- S(x), R(2, 1)")
    assert answer(no, db) == set()


def test_repeated_variable_throughout():
    db = Database.from_relations({"R": [(1, 1, 1), (1, 2, 1)]})
    q = parse_cq("Q(x) :- R(x, x, x)")
    assert answer(q, db) == {(1,)}


def test_none_as_a_domain_value():
    db = Database.from_relations({"R": [(None, 1), (2, None)]})
    q = parse_cq("Q(x, y) :- R(x, y)")
    assert answer(q, db) == {(None, 1), (2, None)}


def test_deep_chain_query_no_recursion_blowup():
    n = 40
    atoms = ", ".join(f"R(x{i}, x{i + 1})" for i in range(n))
    q = parse_cq(f"Q(x0) :- {atoms}")
    db = Database.from_relations({"R": [(i, i + 1) for i in range(n + 1)]})
    assert answer(q, db) == {(i,) for i in range(2)}  # chains of length 40


def test_isolated_domain_elements_matter_for_fo():
    from repro.logic.fo_parser import parse_fo
    from repro.eval.naive import model_check_fo

    db = Database.from_relations({"R": [(1, 1)]})
    db.add_domain_values([99])
    f = parse_fo("forall x. R(x, x)")
    assert not model_check_fo(f, db)  # 99 falsifies


def test_self_join_heavy_query():
    db = Database.from_relations({"R": [(1, 2), (2, 3), (3, 4)]})
    q = parse_cq("Q(a, d) :- R(a, b), R(b, c), R(c, d)")
    assert answer(q, db) == {(1, 4)}
    assert count(q, db) == 1


def test_ucq_with_empty_and_nonempty_disjuncts():
    db = Database([Relation("A", 1, [(1,)]), Relation("B", 1)])
    u = parse_query("Q(x) :- A(x); Q(x) :- B(x)")
    assert answer(u, db) == {(1,)}


def test_float_values():
    db = Database.from_relations({"R": [(1.5, 2.5), (2.5, 3.5)]})
    q = parse_cq("Q(x, z) :- R(x, y), R(y, z)")
    assert answer(q, db) == {(1.5, 3.5)}
    q2 = parse_cq("Q(x) :- R(x, y), x < y")
    assert answer(q2, db) == {(1.5,), (2.5,)}
