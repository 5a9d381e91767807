"""Textual query syntax.

The parser accepts a small Datalog-ish syntax:

* a conjunctive query is one rule::

      Q(x, y) :- R(x, z), S(z, y)

* comparison atoms may appear in the body: ``x < y``, ``x <= y``,
  ``x != y``, ``x = y``, ``x > y``, ``x >= y``;

* negated atoms (``not R(x, y)`` or ``!R(x, y)``) make the rule a
  *negative* conjunctive query — mixing positive and negative relational
  atoms in one rule is rejected (signed queries are out of scope, as in
  the paper);

* several rules with the same head arity, separated by newlines or ``;``,
  form a union of conjunctive queries;

* arguments are variables (identifiers), integer constants, or quoted
  string constants: ``R(x, 3, "paris")``.

``parse_query`` returns a :class:`~repro.logic.cq.ConjunctiveQuery`,
:class:`~repro.logic.ucq.UnionOfConjunctiveQueries` or
:class:`~repro.logic.ncq.NegativeConjunctiveQuery` accordingly.
"""

from __future__ import annotations

import re
from typing import Any, List, Optional, Tuple, Union

from repro.errors import QuerySyntaxError
from repro.logic.atoms import Atom, Comparison
from repro.logic.cq import ConjunctiveQuery
from repro.logic.ncq import NegativeConjunctiveQuery
from repro.logic.terms import Constant, Variable
from repro.logic.ucq import UnionOfConjunctiveQueries

_IDENT = r"[A-Za-z_][A-Za-z_0-9']*"
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<turnstile>:-)
  | (?P<op><=|>=|!=|<|>|=)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<not>\bnot\b|!)
  | (?P<number>-?\d+)
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9']*)
    """,
    re.VERBOSE,
)

QueryLike = Union[ConjunctiveQuery, UnionOfConjunctiveQueries, NegativeConjunctiveQuery]


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:
        return f"{self.kind}:{self.text!r}@{self.pos}"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r} at position {pos}")
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token], source: str):
        self.tokens = tokens
        self.source = source
        self.i = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise QuerySyntaxError(f"unexpected end of query: {self.source!r}")
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise QuerySyntaxError(
                f"expected {kind} at position {tok.pos}, got {tok.text!r} in {self.source!r}"
            )
        return tok

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    # grammar ----------------------------------------------------------------

    def parse_term(self) -> Any:
        tok = self.next()
        if tok.kind == "ident":
            return Variable(tok.text)
        if tok.kind == "number":
            return Constant(int(tok.text))
        if tok.kind == "string":
            return Constant(tok.text[1:-1])
        raise QuerySyntaxError(
            f"expected a term at position {tok.pos}, got {tok.text!r} in {self.source!r}"
        )

    def parse_term_list(self) -> List[Any]:
        self.expect("lparen")
        terms: List[Any] = []
        if self.peek() is not None and self.peek().kind == "rparen":
            self.next()
            return terms
        terms.append(self.parse_term())
        while self.peek() is not None and self.peek().kind == "comma":
            self.next()
            terms.append(self.parse_term())
        self.expect("rparen")
        return terms

    def parse_body_item(self) -> Tuple[str, Any]:
        """Returns ("atom", Atom) | ("neg", Atom) | ("cmp", Comparison)."""
        tok = self.peek()
        if tok is None:
            raise QuerySyntaxError(f"unexpected end of body in {self.source!r}")
        if tok.kind == "not":
            self.next()
            name = self.expect("ident").text
            terms = self.parse_term_list()
            return ("neg", Atom(name, terms))
        # an atom or the left side of a comparison
        left = self.parse_term()
        nxt = self.peek()
        if isinstance(left, Variable) and nxt is not None and nxt.kind == "lparen":
            terms = self.parse_term_list()
            return ("atom", Atom(left.name, terms))
        if nxt is not None and nxt.kind == "op":
            op = self.next().text
            right = self.parse_term()
            return ("cmp", Comparison(left, op, right))
        raise QuerySyntaxError(
            f"expected '(' or a comparison operator after term at position "
            f"{nxt.pos if nxt else len(self.source)} in {self.source!r}"
        )

    def parse_rule(self) -> Tuple[str, List[Any], List[Tuple[str, Any]]]:
        head_name = self.expect("ident").text
        head_terms = self.parse_term_list()
        for t in head_terms:
            if not isinstance(t, Variable):
                raise QuerySyntaxError(f"head arguments must be variables in {self.source!r}")
        self.expect("turnstile")
        items = [self.parse_body_item()]
        while self.peek() is not None and self.peek().kind == "comma":
            self.next()
            items.append(self.parse_body_item())
        return head_name, head_terms, items


def _build_rule(source: str) -> QueryLike:
    parser = _Parser(_tokenize(source), source)
    head_name, head_terms, items = parser.parse_rule()
    if not parser.at_end():
        tok = parser.peek()
        raise QuerySyntaxError(f"trailing input at position {tok.pos} in {source!r}")
    atoms = [a for kind, a in items if kind == "atom"]
    negated = [a for kind, a in items if kind == "neg"]
    comparisons = [c for kind, c in items if kind == "cmp"]
    if negated and atoms:
        raise QuerySyntaxError(
            "signed queries (mixing positive and negative atoms) are not supported"
        )
    if negated:
        if comparisons:
            raise QuerySyntaxError("comparisons are not supported in negative queries")
        return NegativeConjunctiveQuery(head_terms, negated, name=head_name)
    return ConjunctiveQuery(head_terms, atoms, comparisons, name=head_name)


def parse_query(text: str) -> QueryLike:
    """Parse one or more rules; several rules form a UCQ.

    >>> parse_query("Q(x, y) :- R(x, z), S(z, y)")
    Q(x, y) :- R(x, z), S(z, y)
    """
    rules = [part.strip() for chunk in text.splitlines() for part in chunk.split(";")]
    rules = [r for r in rules if r and not r.startswith("#")]
    if not rules:
        raise QuerySyntaxError("empty query text")
    parsed = [_build_rule(r) for r in rules]
    if len(parsed) == 1:
        return parsed[0]
    if any(isinstance(p, NegativeConjunctiveQuery) for p in parsed):
        raise QuerySyntaxError("unions of negative queries are not supported")
    return UnionOfConjunctiveQueries(parsed, name=parsed[0].name)


def parse_cq(text: str) -> ConjunctiveQuery:
    """Parse and require a single conjunctive query."""
    q = parse_query(text)
    if not isinstance(q, ConjunctiveQuery):
        raise QuerySyntaxError(f"expected a single conjunctive query, got {type(q).__name__}")
    return q
