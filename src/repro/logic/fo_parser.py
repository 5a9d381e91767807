"""Textual syntax for first-order formulas (with free second-order
variables), complementing the Datalog-ish CQ parser:

    parse_fo("exists x y. R(x, y) & ~S(y)")
    parse_fo("forall x. X(x) -> E(x, c)")        # X upper-case: SO variable
    parse_fo("exists z. A(x, z) & B(z, y)")      # free x, y

Grammar (precedence low to high)::

    formula   := implies
    implies   := or ( '->' or )*          (right-associative)
    or        := and ( ('|' | 'or') and )*
    and       := unary ( ('&' | 'and') unary )*
    unary     := ('~' | 'not') unary | quantified | atom | '(' formula ')'
    quantified:= ('exists' | 'forall') var+ '.' formula   (max scope)
    atom      := NAME '(' terms ')' | term op term

Predicate names listed in ``so_names`` become free second-order
variables (arity inferred from first use); every other predicate is a
relation symbol.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.errors import QuerySyntaxError
from repro.logic.atoms import Atom, Comparison
from repro.logic.fo import (
    And,
    CompareAtom,
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
    RelAtom,
    SOAtom,
    SecondOrderVariable,
)
from repro.logic.terms import Constant, Variable

_KEYWORDS = {"exists", "forall", "not", "and", "or"}


class _FOParser:
    """Recursive-descent parser over a regex token stream."""

    _TOKEN = None  # compiled lazily below

    @classmethod
    def build(cls, text: str, so_names: Set[str]) -> "_FOParser":
        import re

        if cls._TOKEN is None:
            cls._TOKEN = re.compile(
                r'"[^"]*"|->|!=|<=|>=|\d+|-\d+|[A-Za-z_][A-Za-z_0-9]*'
                r'|[()~|&.,<>=]'
            )
        parser = object.__new__(cls)
        parser.words = cls._TOKEN.findall(text)
        joined = "".join(parser.words)
        stripped = "".join(text.split())
        if joined != stripped:
            raise QuerySyntaxError(f"unrecognised characters in {text!r}")
        parser.pos = 0
        parser.text = text
        parser.so_names = so_names
        parser.so_vars = {}
        return parser

    # ----------------------------------------------------------- word stream

    def peek(self) -> Optional[str]:
        return self.words[self.pos] if self.pos < len(self.words) else None

    def next(self) -> str:
        w = self.peek()
        if w is None:
            raise QuerySyntaxError(f"unexpected end of formula: {self.text!r}")
        self.pos += 1
        return w

    def expect(self, word: str) -> None:
        w = self.next()
        if w != word:
            raise QuerySyntaxError(
                f"expected {word!r}, got {w!r} in {self.text!r}")

    # --------------------------------------------------------------- grammar

    def parse(self) -> Formula:
        f = self.implies()
        if self.peek() is not None:
            raise QuerySyntaxError(
                f"trailing input {self.peek()!r} in {self.text!r}")
        return f

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.next()
            right = self.implies()
            return Or(Not(left), right)
        return left

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek() in ("|", "or"):
            self.next()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(*parts)

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.peek() in ("&", "and"):
            self.next()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(*parts)

    def unary(self) -> Formula:
        w = self.peek()
        if w in ("~", "not"):
            self.next()
            return Not(self.unary())
        if w in ("exists", "forall"):
            self.next()
            variables: List[str] = []
            while self.peek() not in (".",):
                name = self.next()
                if not name.isidentifier():
                    raise QuerySyntaxError(
                        f"bad quantified variable {name!r} in {self.text!r}")
                variables.append(name)
            if not variables:
                raise QuerySyntaxError(
                    f"quantifier without variables in {self.text!r}")
            self.expect(".")
            # the quantifier scopes as far right as possible (standard)
            body = self.implies()
            return (Exists if w == "exists" else ForAll)(variables, body)
        if w == "(":
            self.next()
            f = self.implies()
            self.expect(")")
            return f
        return self.atom()

    def term(self, word: str):
        if word.lstrip("-").isdigit():
            return Constant(int(word))
        if word.startswith('"') and word.endswith('"'):
            return Constant(word[1:-1])
        if not word.isidentifier():
            raise QuerySyntaxError(f"bad term {word!r} in {self.text!r}")
        return Variable(word)

    def atom(self) -> Formula:
        name = self.next()
        if self.peek() == "(":
            self.next()
            terms = []
            while self.peek() != ")":
                terms.append(self.term(self.next()))
                if self.peek() == ",":
                    self.next()
            self.expect(")")
            if name in self.so_names:
                so = self.so_vars.get(name)
                if so is None:
                    so = SecondOrderVariable(name, len(terms))
                    self.so_vars[name] = so
                return SOAtom(so, terms)
            return RelAtom(Atom(name, terms))
        # comparison: term op term
        op = self.next()
        if op not in ("<", "<=", ">", ">=", "!=", "="):
            raise QuerySyntaxError(
                f"expected '(' or comparison after {name!r} in {self.text!r}")
        right = self.next()
        return CompareAtom(Comparison(self.term(name), op, self.term(right)))


def parse_fo(text: str, so_names: Optional[Sequence[str]] = None) -> Formula:
    """Parse a first-order formula; names in ``so_names`` become free
    second-order variables."""
    parser = _FOParser.build(text, set(so_names or ()))
    return parser.parse()
