"""Boolean query answering dispatch.

Routes a Boolean query to the cheapest applicable engine:

* CQ -> the route of its plan (:func:`repro.core.classify.plan_for`),
  run on the plan's query (the homomorphic core when the classifier's
  verdict comes from it): a Yannakakis semijoin pass, O(||phi|| * ||D||),
  when that query is acyclic, a backtracking join (exponential in the
  query only) otherwise;
* beta-acyclic NCQ -> nest-point Davis-Putnam (quasi-linear, Thm 4.31);
* other NCQ / FO sentences -> naive structural recursion.
"""

from __future__ import annotations

from typing import Union

from repro.data.database import Database
from repro.errors import UnsupportedQueryError
from repro.eval.naive import cq_is_satisfiable_naive, model_check_fo
from repro.eval.yannakakis import yannakakis_boolean
from repro.logic.cq import ConjunctiveQuery
from repro.logic.fo import Formula
from repro.logic.ncq import NegativeConjunctiveQuery
from repro.logic.ucq import UnionOfConjunctiveQueries


def model_check(query, db: Database) -> bool:
    """Does D satisfy the (Boolean) query?"""
    if isinstance(query, ConjunctiveQuery):
        if not query.is_boolean():
            raise UnsupportedQueryError("model_check expects a Boolean query")
        from repro.core.classify import plan_for

        plan = plan_for(query)
        if plan.route in ("free-connex", "acyclic"):
            return yannakakis_boolean(plan.query, db)
        return cq_is_satisfiable_naive(plan.query, db)
    if isinstance(query, UnionOfConjunctiveQueries):
        return any(model_check(d, db) for d in query.disjuncts)
    if isinstance(query, NegativeConjunctiveQuery):
        from repro.csp.ncq_solver import decide_ncq

        return decide_ncq(query, db)
    if isinstance(query, Formula):
        return model_check_fo(query, db)
    raise UnsupportedQueryError(f"cannot model-check object of type {type(query).__name__}")
