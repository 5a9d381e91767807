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

* several rules with the same head arity, separated by ``;``, line
  breaks or ``\\/`` (as ``repr`` prints a union), form a union of
  conjunctive queries; a rule part that starts with ``#`` is a comment;

* arguments are variables (identifiers), integer constants, or quoted
  string constants, which may hold separators: ``R(x, 3, "a;b")``.

``parse_query`` returns a :class:`~repro.logic.cq.ConjunctiveQuery`,
:class:`~repro.logic.ucq.UnionOfConjunctiveQueries` or
:class:`~repro.logic.ncq.NegativeConjunctiveQuery` accordingly.
"""

from __future__ import annotations

import re
from typing import Any, Callable, List, Tuple, Union

from repro.errors import QuerySyntaxError
from repro.logic.atoms import COMPARISON_OPS, Atom, Comparison
from repro.logic.cq import ConjunctiveQuery
from repro.logic.ncq import NegativeConjunctiveQuery
from repro.logic.terms import Constant, Variable
from repro.logic.ucq import UnionOfConjunctiveQueries

#: where ``str.splitlines`` splits; each one ends a rule
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_SEPARATORS = frozenset([";", "\\/", *_LINE_BREAKS])
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
#: blanks, then one token (a comment runs to the next ``;`` or line break)
_TOKEN_RE = re.compile(
    rf"[^\S{_LINE_BREAKS}]*([(),]|\bnot\b|[A-Za-z_][A-Za-z_0-9']*|:-|[<>!]?=|[<>!]"
    rf"|-?\d+|\"[^\"{_LINE_BREAKS}]*\"|'[^'{_LINE_BREAKS}]*'|#[^;{_LINE_BREAKS}]*"
    rf"|[;{_LINE_BREAKS}]|\\/)")

QueryLike = Union[ConjunctiveQuery, UnionOfConjunctiveQueries, NegativeConjunctiveQuery]


class _Fail(Exception):
    """A syntax error at a token index, and the kind of token expected."""


def _term(tok: str) -> Any:
    """The term a token spells, or None."""
    c = tok[0]
    if c in _IDENT_START:
        return None if tok == "not" else Variable(tok)
    if c == '"' or c == "'":
        return Constant(tok[1:-1])
    if c == "-" or c.isdecimal():
        return Constant(int(tok))
    return None


def _terms(toks: List[str], i: int) -> Tuple[int, List[Any]]:
    """The parenthesised terms at ``toks[i]``, and the index after them."""
    if toks[i] != "(":
        raise _Fail(i, "lparen")
    if toks[i + 1] == ")":
        return i + 2, []
    terms: List[Any] = []
    while not terms or toks[i] == ",":
        term = _term(toks[i + 1])
        if term is None:
            raise _Fail(i + 1, "a term")
        terms.append(term)
        i += 2
    if toks[i] != ")":
        raise _Fail(i, "rparen")
    return i + 1, terms


def _rule(toks: List[str], i: int) -> Tuple[int, tuple]:
    """The rule at ``toks[i]``, and the index after it."""
    name = toks[i]
    if name[0] not in _IDENT_START or name == "not":
        raise _Fail(i, "ident")
    i, head = _terms(toks, i + 1)
    if not all(isinstance(t, Variable) for t in head):
        raise _Fail(i, "head")
    if toks[i] != ":-":
        raise _Fail(i, "turnstile")
    atoms, negated, comparisons = [], [], []
    while True:
        tok = toks[i + 1]
        if tok == "not" or tok == "!":
            relation = toks[i + 2]
            if relation[0] not in _IDENT_START or relation == "not":
                raise _Fail(i + 2, "ident")
            i, terms = _terms(toks, i + 3)
            negated.append(Atom(relation, terms))
        elif tok[0] in _IDENT_START and toks[i + 2] == "(":
            i, terms = _terms(toks, i + 2)
            atoms.append(Atom(tok, terms))
        else:
            left = _term(tok)
            if left is None:
                raise _Fail(i + 1, "body")
            if toks[i + 2] not in COMPARISON_OPS:
                raise _Fail(i + 2, "after")
            right = _term(toks[i + 3])
            if right is None:
                raise _Fail(i + 3, "a term")
            comparisons.append(Comparison(left, toks[i + 2], right))
            i += 4
        if toks[i] != ",":
            return i, (name, head, atoms, negated, comparisons)


def _rules_of(toks: List[str], build: Callable[..., Any]) -> List[Any]:
    """``build(*rule)`` for each rule in ``toks``, which ends in a line break."""
    out = []
    i, end = 0, len(toks) - 1
    while i < end:
        if toks[i] in _SEPARATORS or toks[i][0] == "#":
            i += 1
            continue
        i, rule = _rule(toks, i)
        if toks[i] not in _SEPARATORS:
            raise _Fail(i, "trailing")
        out.append(build(*rule))
    if not out:
        raise QuerySyntaxError("empty query text")
    return out


#: a syntax error's message by its kind: at a token, and at the end of the rule
_MESSAGES = {
    "head": ("head arguments must be variables in {source!r}",) * 2,
    "after": ("expected '(' or a comparison operator after term at position {pos}"
              " in {source!r}",) * 2,
    "body": ("expected a term at position {pos}, got {got!r} in {source!r}",
             "unexpected end of body in {source!r}"),
    "trailing": ("trailing input at position {pos} in {source!r}",) * 2,
    None: ("expected {kind} at position {pos}, got {got!r} in {source!r}",
           "unexpected end of query: {source!r}"),
}


def parse_rules(text: str, build: Callable[..., Any]) -> List[Any]:
    """``build(name, head, atoms, negated, comparisons)`` for each rule
    of ``text``, in order: one regex pass, then a walk over the token
    strings by index.  Only a syntax error scans ``text`` again."""
    pieces = _TOKEN_RE.split(text)
    if not any(pieces[:-1:2]) and not pieces[-1].strip():  # the tokens tile text
        try:
            return _rules_of(pieces[1::2] + ["\n"], build)
        except _Fail:
            pass
    # the error path: each rule scanned on its own, for the positions of its tokens
    cuts = [m.span(1) for m in _TOKEN_RE.finditer(text) if m[1] in _SEPARATORS]
    out: List[Any] = []
    for start, end in zip([0] + [e for _s, e in cuts], [s for s, _e in cuts] + [len(text)]):
        source = text[start:end].strip()
        if not source or source[0] == "#":
            continue
        matches, at = [], 0
        for m in _TOKEN_RE.finditer(source):
            if m.start() > at or m[1][0] == "#":
                break
            matches.append(m)
            at = m.end()
        rest = source[at:].lstrip()
        if rest:
            raise QuerySyntaxError(
                f"unexpected character {rest[0]!r} at position {len(source) - len(rest)}")
        toks = [m[1] for m in matches]
        try:
            out += _rules_of(toks + ["\n"], build)
        except _Fail as fail:
            i, kind = fail.args
            at_token, at_end = _MESSAGES.get(kind, _MESSAGES[None])
            got, pos = (toks[i], matches[i].start(1)) if i < len(toks) else (None, len(source))
            raise QuerySyntaxError((at_end if got is None else at_token).format(
                kind=kind, got=got, pos=pos, source=source)) from None
    return out


def _query(name: str, head: list, atoms: list, negated: list, comparisons: list) -> QueryLike:
    if negated and atoms:
        raise QuerySyntaxError(
            "signed queries (mixing positive and negative atoms) are not supported")
    if negated:
        if comparisons:
            raise QuerySyntaxError("comparisons are not supported in negative queries")
        return NegativeConjunctiveQuery(head, negated, name=name)
    return ConjunctiveQuery(head, atoms, comparisons, name=name)


def parse_query(text: str) -> QueryLike:
    """Parse one or more rules; several rules form a UCQ.

    >>> parse_query("Q(x, y) :- R(x, z), S(z, y)")
    Q(x, y) :- R(x, z), S(z, y)
    """
    parsed = parse_rules(text, _query)
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
