"""Boolean query answering dispatch.

Routes a Boolean query to the cheapest applicable engine:

* CQ -> the route of its plan (:func:`repro.core.classify.plan_for`),
  run on the plan's query (the homomorphic core when the classifier's
  verdict comes from it): a Yannakakis semijoin pass, O(||phi|| * ||D||),
  when that query is acyclic, a backtracking join (exponential in the
  query only) otherwise.  The verdict is a plan-cache entry, so a
  repeat on an unchanged database runs neither;
* beta-acyclic NCQ -> nest-point Davis-Putnam (quasi-linear, Thm 4.31);
* other NCQ / FO sentences -> naive structural recursion.
"""

from __future__ import annotations

from repro.data.database import Database
from repro.errors import UnsupportedQueryError
from repro.eval.naive import cq_is_satisfiable_naive, model_check_fo
from repro.eval.yannakakis import yannakakis_boolean
from repro.logic.cq import ConjunctiveQuery
from repro.logic.fo import Formula
from repro.logic.ncq import NegativeConjunctiveQuery
from repro.logic.ucq import UnionOfConjunctiveQueries


def model_check(query, db: Database) -> bool:
    """Does D satisfy the (Boolean) query?

    A CQ's verdict is served through the plan cache as the ``decide``
    plan kind (:func:`repro.core.plancache.cached_plan`), keyed like
    every plan by the query, the engine name and the database
    fingerprint: a repeat on an unchanged database is a cache hit, and
    any write to the database rebuilds the verdict."""
    if isinstance(query, ConjunctiveQuery):
        if not query.is_boolean():
            raise UnsupportedQueryError("model_check expects a Boolean query")
        from repro.core.classify import plan_for
        from repro.core.plancache import cached_plan
        from repro.engine import get_engine

        plan = plan_for(query)
        check = (yannakakis_boolean
                 if plan.route in ("free-connex", "acyclic")
                 else cq_is_satisfiable_naive)
        return cached_plan("decide", plan.query, db, get_engine().name,
                           lambda: check(plan.query, db))
    if isinstance(query, UnionOfConjunctiveQueries):
        return any(model_check(d, db) for d in query.disjuncts)
    if isinstance(query, NegativeConjunctiveQuery):
        from repro.csp.ncq_solver import decide_ncq

        return decide_ncq(query, db)
    if isinstance(query, Formula):
        return model_check_fo(query, db)
    raise UnsupportedQueryError(f"cannot model-check object of type {type(query).__name__}")
