"""One-call answering: route a query to the best implemented engine.

A CQ runs the route of its memoised :class:`~repro.core.classify.Plan`
(:func:`~repro.core.classify.plan_for`), on the plan's query: the
homomorphic core when the classifier's verdicts come from it.  The
entry points dispatch:

* ``decide`` — Boolean answering (Yannakakis / DP resolution / naive);
* ``count`` — star-size counting for ACQs, naive elsewhere;
* ``enumerate_answers`` — constant-delay when free-connex (with or
  without disequalities), linear-delay ACQ, union extensions for UCQs,
  with correct fallbacks everywhere else;
* ``answer`` — materialise the full answer set.

Their spans carry the plan's ``route`` (and ``core_atoms`` when the
core runs), so ``repro explain`` shows which plan ran.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Set, Tuple, Union

from repro import obs
from repro.core.classify import plan_for
from repro.data.database import Database
from repro.errors import UnsupportedQueryError
from repro.logic.cq import ConjunctiveQuery
from repro.logic.fo import Formula
from repro.logic.ncq import NegativeConjunctiveQuery
from repro.logic.ucq import UnionOfConjunctiveQueries

QueryLike = Union[ConjunctiveQuery, UnionOfConjunctiveQueries,
                  NegativeConjunctiveQuery, Formula]


def _span_attrs(query: QueryLike) -> Dict[str, Any]:
    attrs: Dict[str, Any] = {"query": type(query).__name__}
    if isinstance(query, ConjunctiveQuery):
        attrs.update(plan_for(query).span_attrs())
    return attrs


def decide(query: QueryLike, db: Database) -> bool:
    """Boolean query answering (model checking)."""
    from repro.eval.modelcheck import model_check

    with obs.span("planner.decide", **_span_attrs(query)):
        return model_check(query, db)


def enumerate_answers(query: QueryLike, db: Database, engine=None,
                      block_size=None) -> Iterator[Tuple[Any, ...]]:
    """Enumerate the answers with the best applicable delay guarantee.

    ``engine`` selects the relational backend (see :mod:`repro.engine`)
    and ``block_size`` the batched pipeline's amortisation block for the
    engines that support it; both default to the process-wide selection.

    The answers come out of the chosen enumerator's blocks
    (:meth:`repro.enumeration.base.Enumerator.blocks`) at one C-level
    step each.  Nothing runs before the first ``next()``: errors surface
    there, and taking one answer builds at most one block.
    """
    return itertools.chain.from_iterable(
        _answer_blocks(query, db, engine, block_size))


def _answer_blocks(query: QueryLike, db: Database, engine, block_size
                   ) -> Iterator[List[Tuple[Any, ...]]]:
    if not obs.enabled():
        yield from _route_blocks(query, db, engine, block_size)
        return
    with obs.span("planner.enumerate", **_span_attrs(query)):
        yield from _route_blocks(query, db, engine, block_size)


def _route_blocks(query: QueryLike, db: Database, engine, block_size
                  ) -> Iterator[List[Tuple[Any, ...]]]:
    """The answer blocks of the route the query's plan picks; a route
    that materialises its answers hands them out as one block."""
    if isinstance(query, ConjunctiveQuery):
        plan = plan_for(query)
        q = plan.query
        if plan.route == "free-connex":
            from repro.enumeration.free_connex import FreeConnexEnumerator

            yield from FreeConnexEnumerator(q, db, engine=engine,
                                            block_size=block_size).blocks()
        elif plan.route == "acyclic":
            from repro.enumeration.acq_linear import LinearDelayACQEnumerator

            yield from LinearDelayACQEnumerator(q, db, engine=engine).blocks()
        elif plan.route == "cyclic":
            from repro.eval.naive import evaluate_cq_naive

            yield sorted(evaluate_cq_naive(q, db), key=repr)
        elif plan.route == "disequalities":
            from repro.enumeration.disequality import enumerate_acq_disequalities
            from repro.errors import NotFreeConnexError

            try:
                yield from enumerate_acq_disequalities(q, db).blocks()
            except NotFreeConnexError:
                from repro.enumeration.disequality import FallbackDisequalityEnumerator

                yield from FallbackDisequalityEnumerator(q, db).blocks()
        else:
            from repro.enumeration.disequality import FallbackDisequalityEnumerator

            yield from FallbackDisequalityEnumerator(q, db).blocks()
        return
    if isinstance(query, UnionOfConjunctiveQueries):
        from repro.enumeration.ucq_union import enumerate_ucq

        yield from enumerate_ucq(query, db, engine=engine,
                                 block_size=block_size).blocks()
        return
    if isinstance(query, NegativeConjunctiveQuery):
        from repro.csp.ncq_solver import ncq_answers

        yield sorted(ncq_answers(query, db), key=repr)
        return
    if isinstance(query, Formula):
        from repro.eval.naive import fo_answers

        if query.so_variables():
            raise UnsupportedQueryError(
                "free second-order variables: use "
                "repro.enumeration.gray.Sigma0SOEnumerator"
            )
        yield sorted(fo_answers(query, db), key=repr)
        return
    raise UnsupportedQueryError(f"cannot enumerate {type(query).__name__}")


def answer(query: QueryLike, db: Database) -> Set[Tuple[Any, ...]]:
    """The full answer set phi(D)."""
    return set(enumerate_answers(query, db))


def count(query: QueryLike, db: Database, weights=None, engine=None) -> Any:
    """|phi(D)| (or its weighted sum), via the best applicable engine.

    ``engine`` selects the relational backend for the routes that use
    one (star-size counting of ACQs); other routes ignore it.
    """
    with obs.span("planner.count", **_span_attrs(query)):
        return _count(query, db, weights, engine=engine)


def _count(query: QueryLike, db: Database, weights=None, engine=None) -> Any:
    if isinstance(query, ConjunctiveQuery):
        plan = plan_for(query)
        q = plan.query
        if plan.route in ("free-connex", "acyclic"):
            from repro.counting.acq_count import count_acq

            return count_acq(q, db, weights, engine=engine)
        if plan.route == "disequalities" and weights is None:
            # count through the ACQ!= enumerator when its fragment applies
            from repro.enumeration.disequality import enumerate_acq_disequalities
            from repro.errors import NotFreeConnexError

            try:
                return sum(1 for _ in enumerate_acq_disequalities(q, db))
            except NotFreeConnexError:
                pass
        from repro.counting.acq_count import count_cq_naive

        return count_cq_naive(q, db, weights)
    if isinstance(query, UnionOfConjunctiveQueries):
        if weights is not None:
            from repro.counting.weighted import sum_of_weights

            return sum_of_weights(answer(query, db), weights)
        return sum(1 for _ in enumerate_answers(query, db))
    if isinstance(query, NegativeConjunctiveQuery):
        return sum(1 for _ in enumerate_answers(query, db))
    if isinstance(query, Formula):
        from repro.eval.naive import fo_answers

        if query.so_variables():
            from repro.counting.spectrum import count_sigma0
            from repro.logic.fo import is_quantifier_free

            if is_quantifier_free(query):
                return count_sigma0(query, db)
            from repro.counting.spectrum import count_so_bruteforce

            return count_so_bruteforce(query, db)
        return len(fo_answers(query, db))
    raise UnsupportedQueryError(f"cannot count {type(query).__name__}")
