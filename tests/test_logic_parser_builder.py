"""Unit tests for the query parser and the fluent builder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MalformedQueryError, QuerySyntaxError
from repro.logic.atoms import Atom, Comparison
from repro.logic.builder import Q, union
from repro.logic.cq import ConjunctiveQuery
from repro.logic.ncq import NegativeConjunctiveQuery
from repro.logic.parser import parse_cq, parse_query
from repro.logic.terms import Constant, Variable
from repro.logic.ucq import UnionOfConjunctiveQueries


def test_parse_simple_cq():
    q = parse_query("Q(x, y) :- R(x, z), S(z, y)")
    assert isinstance(q, ConjunctiveQuery)
    assert q.arity == 2
    assert q.name == "Q"


def test_parse_boolean_query():
    q = parse_cq("Q() :- R(x, y)")
    assert q.is_boolean()


def test_parse_constants():
    q = parse_cq('Q(x) :- R(x, 3), S(x, "paris")')
    consts = [c.value for a in q.atoms for c in a.constants()]
    assert consts == [3, "paris"]


def test_parse_negative_constant():
    q = parse_cq("Q(x) :- R(x, -5)")
    assert q.atoms[0].constants() == (Constant(-5),)


def test_parse_comparisons():
    q = parse_cq("Q(x, y) :- R(x, y), x != y, x < 10")
    assert len(q.comparisons) == 2
    assert q.disequalities()[0].op == "!="
    assert q.order_comparisons()[0].op == "<"


def test_parse_all_comparison_ops():
    q = parse_cq("Q(x, y) :- R(x, y), x <= y, x >= 0, x = x, x > 0")
    assert len(q.comparisons) == 4


def test_parse_ncq():
    q = parse_query("Q(x) :- not R(x, y), !S(y)")
    assert isinstance(q, NegativeConjunctiveQuery)
    assert len(q.atoms) == 2


def test_parse_signed_query_rejected():
    with pytest.raises(QuerySyntaxError):
        parse_query("Q(x) :- R(x, y), not S(y)")


def test_parse_ucq_multiline():
    q = parse_query("""
        Q(x, y) :- R(x, y)
        Q(x, y) :- S(x, y)
    """)
    assert isinstance(q, UnionOfConjunctiveQueries)
    assert len(q) == 2


def test_parse_ucq_semicolons():
    q = parse_query("Q(x) :- R(x, y); Q(x) :- S(x)")
    assert isinstance(q, UnionOfConjunctiveQueries)


def test_parse_comments_and_blank_lines():
    q = parse_query("""
        # the lineage query
        Q(x) :- R(x, y)
    """)
    assert isinstance(q, ConjunctiveQuery)


def test_parse_errors():
    for bad in [
        "",
        "Q(x)",
        "Q(x) :-",
        "Q(x) :- R(x",
        "Q(x) :- R(x,)",
        "Q(3) :- R(x)",
        "Q(x) :- x",
        "Q(x) :- R(x) extra",
        "Q(x) :- R(x) ??",
    ]:
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)


@pytest.mark.parametrize("text, message", [
    ("", "empty query text"),
    ("Q(x)", "unexpected end of query: 'Q(x)'"),
    ("Q(x) :-", "unexpected end of body in 'Q(x) :-'"),
    ("Q(x) :- R(x", "unexpected end of query: 'Q(x) :- R(x'"),
    ("Q(x) :- R(x,)", "expected a term at position 12, got ')' in 'Q(x) :- R(x,)'"),
    ("Q(3) :- R(x)", "head arguments must be variables in 'Q(3) :- R(x)'"),
    ("Q(x) :- x", "expected '(' or a comparison operator after term at position 9"
                  " in 'Q(x) :- x'"),
    ("Q(x) :- R(x) extra", "trailing input at position 13 in 'Q(x) :- R(x) extra'"),
    ("Q(x) :- R(x) ??", "unexpected character '?' at position 13"),
    ("Q x", "expected lparen at position 2, got 'x' in 'Q x'"),
    ("Q(x y) :- R(x)", "expected rparen at position 4, got 'y' in 'Q(x y) :- R(x)'"),
    ("(x) :- R(x)", "expected ident at position 0, got '(' in '(x) :- R(x)'"),
    ("Q(x) R(x)", "expected turnstile at position 5, got 'R' in 'Q(x) R(x)'"),
    ("Q(x) :- not (x)", "expected ident at position 12, got '(' in 'Q(x) :- not (x)'"),
    ("Q(x) :- ! R(x, 3) extra",
     "trailing input at position 18 in 'Q(x) :- ! R(x, 3) extra'"),
    ("Q(x) :- R(x), x <", "unexpected end of query: 'Q(x) :- R(x), x <'"),
    ("Q(x) :- R(x), x < )",
     "expected a term at position 18, got ')' in 'Q(x) :- R(x), x < )'"),
    ("Q(x) :- 3(x)", "expected '(' or a comparison operator after term at position 9"
                     " in 'Q(x) :- 3(x)'"),
    # a comment only starts a rule; inside one, '#' is no token
    ("Q(x) :- R(x) # note", "unexpected character '#' at position 13"),
    # positions count from the failing rule's first token
    ("Q(x) :- R(x)\n  Q(x) :- S(x", "unexpected end of query: 'Q(x) :- S(x'"),
    ("Q(x) :- R(x);   Q(x) :- S(x) ??", "unexpected character '?' at position 13"),
    ('Q(x) :- R(x, "a)', "unexpected character '\"' at position 13"),
    ("Q(x) :- R(x, 'a\"); Q(x) :- S(x)", "unexpected character \"'\" at position 13"),
    ("  # comment only\n ; ", "empty query text"),
    ("Q(x) :- R(x), not S(x)",
     "signed queries (mixing positive and negative atoms) are not supported"),
    ("Q(x) :- not R(x), x != 1", "comparisons are not supported in negative queries"),
    ("Q(x) :- not R(x); Q(x) :- S(x)", "unions of negative queries are not supported"),
    # rules fail in order: the first rule's error wins
    ("Q(x) :- R(x), not S(x); Q(x) :- ?",
     "signed queries (mixing positive and negative atoms) are not supported"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(text)
    assert str(err.value) == message


def test_rule_errors_raise_in_rule_order():
    """The first rule's malformed head is reported before the second
    rule's syntax error."""
    with pytest.raises(MalformedQueryError, match="head variable y"):
        parse_query("Q(y) :- R(x); Q(x) :- S(x")


@pytest.mark.parametrize("text, constant", [
    ('Q(x) :- R(x, "a;b")', "a;b"),
    ('Q(x) :- R(x, y), y != "p;q"', "p;q"),
    ("Q(x) :- R(x, '# not a comment \\/ nor a union')", "# not a comment \\/ nor a union"),
])
def test_quoted_constants_hold_separators(text, constant):
    q = parse_cq(text)
    assert Constant(constant) in [t for a in q.atoms for t in a.terms] + [
        c.right for c in q.comparisons]


@pytest.mark.parametrize("text", [
    "Q(x) :- R(x, y) \\/ Q(x) :- S(x)",
    "Q(x) :- R(x, y)\\/Q(x) :- S(x)",
    "# R and S \\/ both\nQ(x) :- R(x, y) ; Q(x) :- S(x)",
])
def test_rules_split_at_union_separator(text):
    q = parse_query(text)
    assert isinstance(q, UnionOfConjunctiveQueries)
    assert [d.atoms[0].relation for d in q.disjuncts] == ["R", "S"]


def test_union_separator_errors_name_their_rule():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("Q(x) :- R(x) \\/  Q(x) :- S(x")
    assert str(err.value) == "unexpected end of query: 'Q(x) :- S(x'"


# round trips: parse_query(repr(q)) rebuilds q

RELATIONS = {"R": 2, "S": 1, "T3": 3}
NAMES = ["x", "y", "z", "u", "w"]
# printable, no quote or backslash (repr would escape them), with separators
STRINGS = st.text(st.characters(blacklist_characters="'\"\\").filter(str.isprintable)
                  | st.sampled_from(";# /"), max_size=6)
CONSTANTS = st.builds(Constant, st.integers(-10 ** 6, 10 ** 6) | STRINGS)


@st.composite
def atoms(draw):
    relation = draw(st.sampled_from(sorted(RELATIONS)))
    arity = RELATIONS[relation]
    terms = st.sampled_from(NAMES) | CONSTANTS
    return Atom(relation, draw(st.lists(terms, min_size=arity, max_size=arity)))


@st.composite
def cqs(draw, arity=None):
    body = draw(st.lists(atoms(), min_size=1, max_size=4))
    names = sorted({v.name for a in body for v in a.variables()})
    terms = st.sampled_from(names) | CONSTANTS if names else CONSTANTS
    comparisons = draw(st.lists(st.builds(
        Comparison, terms, st.sampled_from(["<", "<=", ">", ">=", "!=", "="]), terms),
        max_size=3))
    if arity is None:
        arity = draw(st.integers(0, len(names)))
    if arity > len(names):
        body.append(Atom("W", NAMES[:arity]))
        names = sorted(set(names) | set(NAMES[:arity]))
    head = draw(st.permutations(names))[:arity]
    name = draw(st.sampled_from(["Q", "Ans", "q_1"]))
    return ConjunctiveQuery(head, body, comparisons, name=name)


@given(cqs())
@settings(max_examples=150, deadline=None)
def test_cq_repr_roundtrip(q):
    back = parse_query(repr(q))
    assert back == q
    assert repr(back) == repr(q)


@given(st.integers(0, 2).flatmap(
    lambda k: st.lists(cqs(arity=k), min_size=2, max_size=3)))
@settings(max_examples=80, deadline=None)
def test_ucq_repr_roundtrip(disjuncts):
    u = UnionOfConjunctiveQueries(disjuncts, name=disjuncts[0].name)
    back = parse_query(repr(u))
    assert back == u
    assert repr(back) == repr(u)


@given(st.lists(atoms(), min_size=1, max_size=3), st.data())
@settings(max_examples=80, deadline=None)
def test_ncq_repr_roundtrip(body, data):
    names = sorted({v.name for a in body for v in a.variables()})
    head = data.draw(st.permutations(names))[:data.draw(st.integers(0, len(names)))]
    q = NegativeConjunctiveQuery(head, body)
    back = parse_query(repr(q))
    assert isinstance(back, NegativeConjunctiveQuery)
    assert repr(back) == repr(q)


def test_parse_cq_rejects_union():
    with pytest.raises(QuerySyntaxError):
        parse_cq("Q(x) :- R(x); Q(x) :- S(x)")


def test_parser_repr_roundtrip():
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y), x != y")
    assert parse_cq(repr(q)) == q


def test_builder_cq():
    q = Q("x", "y").where("R", "x", "z").where("S", "z", "y").build()
    assert q == parse_cq("Q(x, y) :- R(x, z), S(z, y)")


def test_builder_with_comparison():
    q = Q("x").where("R", "x", "z").compare("x", "!=", "z").build()
    assert len(q.disequalities()) == 1


def test_builder_ncq():
    q = Q("x").where_not("R", "x", "y").build_negative()
    assert isinstance(q, NegativeConjunctiveQuery)


def test_builder_union():
    u = union(parse_cq("Q(x) :- R(x)"), parse_cq("Q(x) :- S(x)"))
    assert isinstance(u, UnionOfConjunctiveQueries)
    assert len(u) == 2
