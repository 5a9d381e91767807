"""First-order logic ASTs, with optional free second-order variables.

This module covers what Sections 3 and 5 of the paper need:

* full FO formulas: relational atoms, comparisons/equalities, boolean
  connectives, first-order quantifiers;
* free *second-order* variables (Section 5): a formula ``phi(x, X)`` may
  contain :class:`SOAtom` atoms ``X(t1..tk)`` over relation variables that
  are never quantified — answers then pair a tuple of domain elements with
  a tuple of relations;
* prenex normal form and quantifier-prefix extraction, feeding the
  Sigma_k / Pi_k classification of :mod:`repro.logic.prefix`.

Formulas are immutable trees.  Evaluation of FO formulas lives in
:mod:`repro.eval.naive` (baseline semantics) and the specialised engines.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import MalformedQueryError
from repro.logic.atoms import Atom, Comparison
from repro.logic.terms import Term, Variable, as_term


class SecondOrderVariable:
    """A free second-order (relation) variable of fixed arity."""

    __slots__ = ("name", "arity")
    _interned: Dict[Tuple[str, int], "SecondOrderVariable"] = {}

    def __new__(cls, name: str, arity: int) -> "SecondOrderVariable":
        key = (name, arity)
        existing = cls._interned.get(key)
        if existing is not None:
            return existing
        obj = super().__new__(cls)
        object.__setattr__(obj, "name", name)
        object.__setattr__(obj, "arity", arity)
        cls._interned[key] = obj
        return obj

    def __setattr__(self, key: str, value: Any) -> None:
        raise AttributeError("SecondOrderVariable is immutable")

    def __repr__(self) -> str:
        return self.name


class Formula:
    """Abstract base of FO formula nodes."""

    __slots__ = ()

    def free_variables(self) -> FrozenSet[Variable]:
        raise NotImplementedError

    def so_variables(self) -> FrozenSet[SecondOrderVariable]:
        raise NotImplementedError

    def children(self) -> Tuple["Formula", ...]:
        return ()

    # connective sugar ------------------------------------------------------

    def __and__(self, other: "Formula") -> "And":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


class RelAtom(Formula):
    """Wrapper lifting a relational :class:`Atom` into the FO AST."""

    __slots__ = ("atom",)

    def __init__(self, relation_or_atom, terms: Optional[Sequence[Any]] = None):
        if isinstance(relation_or_atom, Atom):
            atom = relation_or_atom
        else:
            atom = Atom(relation_or_atom, terms or ())
        object.__setattr__(self, "atom", atom)

    def __setattr__(self, key: str, value: Any) -> None:
        raise AttributeError("RelAtom is immutable")

    def free_variables(self) -> FrozenSet[Variable]:
        return self.atom.variable_set()

    def so_variables(self) -> FrozenSet[SecondOrderVariable]:
        return frozenset()

    def __repr__(self) -> str:
        return repr(self.atom)


class CompareAtom(Formula):
    """Wrapper lifting a :class:`Comparison` into the FO AST."""

    __slots__ = ("comparison",)

    def __init__(self, left: Any, op: Optional[str] = None, right: Any = None):
        if isinstance(left, Comparison) and op is None:
            comparison = left
        else:
            comparison = Comparison(left, op, right)
        object.__setattr__(self, "comparison", comparison)

    def __setattr__(self, key: str, value: Any) -> None:
        raise AttributeError("CompareAtom is immutable")

    def free_variables(self) -> FrozenSet[Variable]:
        return self.comparison.variable_set()

    def so_variables(self) -> FrozenSet[SecondOrderVariable]:
        return frozenset()

    def __repr__(self) -> str:
        return repr(self.comparison)


class SOAtom(Formula):
    """X(t1, ..., tk) for a free second-order variable X."""

    __slots__ = ("so_var", "terms")

    def __init__(self, so_var: SecondOrderVariable, terms: Sequence[Any]):
        terms = tuple(as_term(t) for t in terms)
        if len(terms) != so_var.arity:
            raise MalformedQueryError(
                f"SO variable {so_var.name} has arity {so_var.arity}, got {len(terms)} terms"
            )
        object.__setattr__(self, "so_var", so_var)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, key: str, value: Any) -> None:
        raise AttributeError("SOAtom is immutable")

    def free_variables(self) -> FrozenSet[Variable]:
        return frozenset(t for t in self.terms if isinstance(t, Variable))

    def so_variables(self) -> FrozenSet[SecondOrderVariable]:
        return frozenset({self.so_var})

    def __repr__(self) -> str:
        args = ", ".join(map(repr, self.terms))
        return f"{self.so_var.name}({args})"


class Not(Formula):
    """Negation node."""

    __slots__ = ("child",)

    def __init__(self, child: Formula):
        object.__setattr__(self, "child", child)

    def __setattr__(self, key: str, value: Any) -> None:
        raise AttributeError("Not is immutable")

    def free_variables(self) -> FrozenSet[Variable]:
        return self.child.free_variables()

    def so_variables(self) -> FrozenSet[SecondOrderVariable]:
        return self.child.so_variables()

    def children(self) -> Tuple[Formula, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        return f"~({self.child!r})"


class _Nary(Formula):
    __slots__ = ("operands",)
    symbol = "?"

    def __init__(self, *operands: Formula):
        flat: List[Formula] = []
        for op in operands:
            if isinstance(op, type(self)):
                flat.extend(op.operands)
            else:
                flat.append(op)
        if len(flat) < 1:
            raise MalformedQueryError(f"{type(self).__name__} needs at least one operand")
        object.__setattr__(self, "operands", tuple(flat))

    def __setattr__(self, key: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def free_variables(self) -> FrozenSet[Variable]:
        out: FrozenSet[Variable] = frozenset()
        for op in self.operands:
            out |= op.free_variables()
        return out

    def so_variables(self) -> FrozenSet[SecondOrderVariable]:
        out: FrozenSet[SecondOrderVariable] = frozenset()
        for op in self.operands:
            out |= op.so_variables()
        return out

    def children(self) -> Tuple[Formula, ...]:
        return self.operands

    def __repr__(self) -> str:
        return f" {self.symbol} ".join(f"({op!r})" for op in self.operands)


class And(_Nary):
    """N-ary conjunction (operands flattened)."""

    __slots__ = ()
    symbol = "/\\"


class Or(_Nary):
    """N-ary disjunction (operands flattened)."""

    __slots__ = ()
    symbol = "\\/"


class _Quantifier(Formula):
    __slots__ = ("variables", "child")
    symbol = "?"

    def __init__(self, variables, child: Formula):
        if isinstance(variables, (str, Variable)):
            variables = [variables]
        var_tuple = tuple(Variable(v) if isinstance(v, str) else v for v in variables)
        for v in var_tuple:
            if not isinstance(v, Variable):
                raise MalformedQueryError(f"can only quantify first-order variables, got {v!r}")
        object.__setattr__(self, "variables", var_tuple)
        object.__setattr__(self, "child", child)

    def __setattr__(self, key: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def free_variables(self) -> FrozenSet[Variable]:
        return self.child.free_variables() - frozenset(self.variables)

    def so_variables(self) -> FrozenSet[SecondOrderVariable]:
        return self.child.so_variables()

    def children(self) -> Tuple[Formula, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        names = " ".join(v.name for v in self.variables)
        return f"{self.symbol}{names}. ({self.child!r})"


class Exists(_Quantifier):
    """Existential quantification over a block of variables."""

    __slots__ = ()
    symbol = "E"


class ForAll(_Quantifier):
    """Universal quantification over a block of variables."""

    __slots__ = ()
    symbol = "A"


# --------------------------------------------------------------------- helpers


def atoms_of(formula: Formula) -> List[Atom]:
    """All relational atoms occurring in ``formula`` (with multiplicity)."""
    out: List[Atom] = []

    def walk(f: Formula) -> None:
        if isinstance(f, RelAtom):
            out.append(f.atom)
        for c in f.children():
            walk(c)

    walk(formula)
    return out


def is_quantifier_free(formula: Formula) -> bool:
    """No Exists/ForAll node anywhere in the tree (the Sigma_0 test)."""
    if isinstance(formula, (Exists, ForAll)):
        return False
    return all(is_quantifier_free(c) for c in formula.children())


def quantifier_prefix(formula: Formula) -> Tuple[List[Tuple[str, Tuple[Variable, ...]]], Formula]:
    """Split a formula in prenex form into (prefix blocks, matrix).

    A block is ("E" | "A", variables).  Stops at the first non-quantifier
    node; callers that need full prenex form should call
    :func:`to_prenex` first.
    """
    blocks: List[Tuple[str, Tuple[Variable, ...]]] = []
    current = formula
    while isinstance(current, (Exists, ForAll)):
        kind = "E" if isinstance(current, Exists) else "A"
        if blocks and blocks[-1][0] == kind:
            blocks[-1] = (kind, blocks[-1][1] + current.variables)
        else:
            blocks.append((kind, current.variables))
        current = current.child
    return blocks, current


_fresh_counter = [0]


def _fresh_variable(base: Variable) -> Variable:
    _fresh_counter[0] += 1
    return Variable(f"{base.name}#{_fresh_counter[0]}")


def rename_variable(formula: Formula, old: Variable, new: Variable) -> Formula:
    """Capture-avoiding rename of a (free or bound) variable occurrence."""

    def sub_term(t: Term) -> Term:
        return new if t is old else t

    if isinstance(formula, RelAtom):
        return RelAtom(Atom(formula.atom.relation, [sub_term(t) for t in formula.atom.terms]))
    if isinstance(formula, CompareAtom):
        c = formula.comparison
        return CompareAtom(Comparison(sub_term(c.left), c.op, sub_term(c.right)))
    if isinstance(formula, SOAtom):
        return SOAtom(formula.so_var, [sub_term(t) for t in formula.terms])
    if isinstance(formula, Not):
        return Not(rename_variable(formula.child, old, new))
    if isinstance(formula, And):
        return And(*[rename_variable(c, old, new) for c in formula.operands])
    if isinstance(formula, Or):
        return Or(*[rename_variable(c, old, new) for c in formula.operands])
    if isinstance(formula, (Exists, ForAll)):
        if old in formula.variables:
            return formula  # occurrence is re-bound below; nothing free to rename
        return type(formula)(formula.variables, rename_variable(formula.child, old, new))
    raise MalformedQueryError(f"unknown formula node {formula!r}")


def to_prenex(formula: Formula) -> Formula:
    """Prenex normal form (classical equivalences; renames on capture).

    Negation is pushed through quantifiers; conjunction/disjunction pull
    quantifiers out left-to-right.
    """
    f = _push_negations(formula)
    return _pull_quantifiers(f)


def _push_negations(formula: Formula) -> Formula:
    if isinstance(formula, Not):
        child = formula.child
        if isinstance(child, Not):
            return _push_negations(child.child)
        if isinstance(child, And):
            return Or(*[_push_negations(Not(c)) for c in child.operands])
        if isinstance(child, Or):
            return And(*[_push_negations(Not(c)) for c in child.operands])
        if isinstance(child, Exists):
            return ForAll(child.variables, _push_negations(Not(child.child)))
        if isinstance(child, ForAll):
            return Exists(child.variables, _push_negations(Not(child.child)))
        return Not(_push_negations(child))
    if isinstance(formula, And):
        return And(*[_push_negations(c) for c in formula.operands])
    if isinstance(formula, Or):
        return Or(*[_push_negations(c) for c in formula.operands])
    if isinstance(formula, (Exists, ForAll)):
        return type(formula)(formula.variables, _push_negations(formula.child))
    return formula


def _pull_quantifiers(formula: Formula) -> Formula:
    if isinstance(formula, (RelAtom, CompareAtom, SOAtom)):
        return formula
    if isinstance(formula, Not):
        # negations are already pushed onto atoms
        return formula
    if isinstance(formula, (Exists, ForAll)):
        return type(formula)(formula.variables, _pull_quantifiers(formula.child))
    if isinstance(formula, (And, Or)):
        connective = type(formula)
        operands = [_pull_quantifiers(c) for c in formula.operands]
        prefix: List[Tuple[str, Variable]] = []
        matrices: List[Formula] = []
        for op in operands:
            blocks, matrix = quantifier_prefix(op)
            bound_here = [v for _, vs in blocks for v in vs]
            # avoid capture: rename bound vars clashing with other operands
            for v in bound_here:
                clash = any(
                    v in other.free_variables() for other in operands if other is not op
                ) or any(v == pv for _, pv in prefix)
                if clash:
                    nv = _fresh_variable(v)
                    matrix = rename_variable(matrix, v, nv)
                    blocks = [
                        (k, tuple(nv if b is v else b for b in vs)) for k, vs in blocks
                    ]
            for kind, vs in blocks:
                for v in vs:
                    prefix.append((kind, v))
            matrices.append(matrix)
        result: Formula = connective(*matrices)
        for kind, v in reversed(prefix):
            result = (Exists if kind == "E" else ForAll)([v], result)
        return result
    raise MalformedQueryError(f"unknown formula node {formula!r}")


def cq_to_fo(cq) -> Formula:
    """Translate a ConjunctiveQuery into an equivalent FO formula."""
    parts: List[Formula] = [RelAtom(a) for a in cq.atoms]
    parts += [CompareAtom(c) for c in cq.comparisons]
    body: Formula = And(*parts) if len(parts) > 1 else parts[0]
    existential = sorted(cq.existential_variables(), key=lambda v: v.name)
    if existential:
        return Exists(existential, body)
    return body
