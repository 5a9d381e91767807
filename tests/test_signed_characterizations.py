"""Tests for signed queries (Section 4.5's [18] fragment) and the
Beeri-Fagin-Maier-Yannakakis alpha-acyclicity characterisation."""

import random

import pytest

from repro.data import generators
from repro.data.database import Database
from repro.errors import MalformedQueryError, QuerySyntaxError
from repro.eval.naive import satisfying_assignments
from repro.hypergraph.characterizations import (
    is_alpha_acyclic_bfmy,
    is_chordal,
    is_conformal,
    maximal_cliques,
    perfect_elimination_ordering,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import is_alpha_acyclic
from repro.logic.parser import parse_cq
from repro.logic.signed import (
    SignedConjunctiveQuery,
    count_signed,
    decide_signed,
    evaluate_signed,
    parse_signed,
)
from repro.logic.terms import Variable


# ------------------------------------------------------------ signed queries


def expected_signed(db, positive_text, negative_checks):
    pos = parse_cq(positive_text)
    out = set()
    for a in satisfying_assignments(pos, db):
        if all(tuple(a[Variable(v)] for v in vs) not in db.relation(rel)
               for rel, vs in negative_checks):
            out.add(tuple(a[v] for v in pos.head))
    return out


def test_signed_evaluation_randomized():
    for seed in range(6):
        db = generators.random_database({"E": 2, "F": 2}, 5, 14, seed=seed)
        sq = parse_signed("Q(x, z) :- E(x, y), E(y, z), not F(x, z)")
        expected = expected_signed(db, "Q(x, z) :- E(x, y), E(y, z)",
                                   [("F", ["x", "z"])])
        assert evaluate_signed(sq, db) == expected, seed
        assert count_signed(sq, db) == len(expected)
        assert decide_signed(sq, db) == bool(expected)


def test_signed_open_triangle():
    sq = parse_signed("Q(x, z) :- E(x, y), E(y, z), not E(x, z)")
    db = Database.from_relations({"E": [(1, 2), (2, 3), (1, 3), (3, 4)]})
    got = evaluate_signed(sq, db)
    assert (2, 4) in got            # 2-3-4 is open
    assert (1, 3) not in got        # 1-2-3 is closed by (1, 3)


def test_signed_safety_enforced():
    from repro.logic.atoms import Atom

    with pytest.raises(MalformedQueryError):
        SignedConjunctiveQuery(["x"], [Atom("E", ["x", "y"])],
                               [Atom("F", ["x", "w"])])
    with pytest.raises(MalformedQueryError):
        SignedConjunctiveQuery(["x"], [], [Atom("F", ["x"])])


def test_signed_positive_core_classification():
    sq = parse_signed("Q(x) :- E(x, y), B(y), not F(x)")
    core = sq.positive_core()
    assert core.is_free_connex()
    assert set(sq.relation_names()) == {"E", "B", "F"}
    assert "not" in repr(sq)


def test_signed_boolean():
    sq = parse_signed("Q() :- E(x, y), not F(x, y)")
    db = Database.from_relations({"E": [(1, 2)], "F": [(1, 2)]})
    assert not decide_signed(sq, db)
    db2 = Database.from_relations({"E": [(1, 2), (3, 4)], "F": [(1, 2)]})
    assert decide_signed(sq, db2)


@pytest.mark.parametrize("text, message", [
    ("Q(x) :- E(x, y), not F(x",
     "unexpected end of query: 'Q(x) :- E(x, y), not F(x'"),
    ("Q(x) :- E(x, y), not (x)",
     "expected ident at position 21, got '(' in 'Q(x) :- E(x, y), not (x)'"),
    ("Q(x) :- E(x, y), not F(x) ?", "unexpected character '?' at position 26"),
])
def test_signed_parse_error_messages(text, message):
    with pytest.raises(QuerySyntaxError) as err:
        parse_signed(text)
    assert str(err.value) == message


def test_signed_parse_rejects_trailing_input():
    with pytest.raises(QuerySyntaxError) as err:
        parse_signed("Q(x) :- E(x, y), not F(x) garbage here")
    assert str(err.value) == ("trailing input at position 26 in "
                              "'Q(x) :- E(x, y), not F(x) garbage here'")


def test_signed_parse_takes_one_rule():
    with pytest.raises(QuerySyntaxError, match="one signed rule"):
        parse_signed("Q(x) :- E(x, y), not F(x); Q(x) :- E(x, y)")


def test_signed_parse_rejects_comparisons():
    with pytest.raises(MalformedQueryError, match="comparisons"):
        parse_signed("Q(x) :- E(x, y), x != 1")


# --------------------------------------------------------- characterisations


def test_maximal_cliques_triangle_plus_pendant():
    adj = {1: {2, 3}, 2: {1, 3}, 3: {1, 2, 4}, 4: {3}}
    cliques = {frozenset(c) for c in maximal_cliques(adj)}
    assert frozenset({1, 2, 3}) in cliques
    assert frozenset({3, 4}) in cliques


def test_chordality():
    c4 = {1: {2, 4}, 2: {1, 3}, 3: {2, 4}, 4: {3, 1}}
    assert not is_chordal(c4)
    assert perfect_elimination_ordering(c4) is None
    chorded = {1: {2, 4, 3}, 2: {1, 3}, 3: {2, 4, 1}, 4: {3, 1}}
    assert is_chordal(chorded)


def test_conformality():
    # triangle as 2-uniform hypergraph: clique {a,b,c} in no edge
    h = Hypergraph({"a", "b", "c"},
                   [frozenset("ab"), frozenset("bc"), frozenset("ca")])
    assert not is_conformal(h)
    covered = h.with_edge({"a", "b", "c"})
    assert is_conformal(covered)


def test_bfmy_equivalence_randomized():
    """GYO == (conformal AND chordal) on random hypergraphs — the classic
    BFMY theorem as a property test."""
    rng = random.Random(3)
    variables = list("abcdef")
    for trial in range(200):
        edges = []
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, 4)
            edges.append(frozenset(rng.sample(variables, size)))
        verts = {v for e in edges for v in e}
        h = Hypergraph(verts, edges)
        assert is_alpha_acyclic(h) == is_alpha_acyclic_bfmy(h), edges


def test_bfmy_on_paper_examples():
    path = parse_cq("Q(x, y, z) :- E(x, y), F(y, z)").hypergraph()
    assert is_alpha_acyclic_bfmy(path)
    tri = parse_cq("Q(x, y, z) :- E(x, y), F(y, z), G(z, x)").hypergraph()
    assert not is_alpha_acyclic_bfmy(tri)
    covered = parse_cq(
        "Q(x, y, z) :- E(x, y), F(y, z), G(z, x), T(x, y, z)").hypergraph()
    assert is_alpha_acyclic_bfmy(covered)


def test_signed_classification():
    from repro.core.classify import classify

    sq = parse_signed("Q(x) :- E(x, y), B(y), not F(x)")
    report = classify(sq)
    assert report.query_class == "signed CQ"
    assert report.fact("negative_atoms") == 1
    assert report.verdict("decide").engine.endswith("decide_signed")
    assert report.verdict("enumerate").tractable is None
