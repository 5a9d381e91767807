"""Counting answers of acyclic conjunctive queries (Section 4.4).

Three levels, matching the paper's tractability ladder:

* :func:`count_full_acyclic_join` — weighted message passing over a join
  tree: the #F-ACQ^0 algorithm behind Theorem 4.21.  One bottom-up DP
  pass; each node aggregates its children's sums through hash probes, so
  the cost is O(||phi|| * ||D||) (better than the O(||phi|| * ||D||^2)
  the theorem quotes).
* :func:`count_quantifier_free_acyclic` — the same on a query + database.
* :func:`count_acq` — general ACQs via the quantified-star-size
  decomposition of Theorem 4.28: each S-component is collapsed to its
  projection onto its free variables (:func:`repro.eval.yannakakis.
  free_join`, which free-connex enumeration shares: one atom's
  projection, or the bottom-up join-project of Yannakakis' algorithm
  along the component's own join tree), and the resulting
  quantifier-free acyclic query is counted by the DP.  Total time
  ||D||^{O(s)}.

Cross-validation baseline: :func:`count_cq_naive`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.data.database import Database
from repro.counting.weighted import WeightFunction
from repro.errors import NotAcyclicError, UnsupportedQueryError
from repro.eval.join import VarRelation
from repro.eval.naive import evaluate_cq_naive
from repro.eval.yannakakis import free_join, full_reducer
from repro.hypergraph.jointree import cached_join_tree
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Variable


def count_full_acyclic_join(relations: Sequence[VarRelation],
                            weights: Optional[WeightFunction] = None) -> Any:
    """Weighted number of tuples in the natural join of ``relations``.

    The relations' variable sets must form an acyclic hypergraph.  Message
    passing: for each node tuple, the number (weight) of extensions into
    its subtree; each variable's weight is charged at the unique top node
    of its occurrence subtree.

    When every relation is columnar and the weight is the plain counting
    weight, the messages are computed by vectorized group-sums
    (:func:`repro.engine.columnar.count_acyclic_join_columnar`) instead
    of per-tuple dict probes, unless the product of the relations' row
    counts reaches :data:`repro.engine.columnar.COUNT_BOUND`, past which
    int64 sums could wrap.  Weighted, the group-sums run in float64.
    With integral weights the total is an exact int below 2^53 (see
    :func:`_row_weights`); past it the per-tuple DP recounts in Python
    ints.
    """
    w = weights or WeightFunction.ones()
    relations = list(relations)
    if not relations:
        return 1
    if any(len(r.variables) == 0 for r in relations):
        # zero-ary relations are just truth values
        for r in relations:
            if len(r.variables) == 0 and len(r) == 0:
                return 0
        relations = [r for r in relations if len(r.variables) > 0]
        if not relations:
            return 1
    from repro.engine.columnar import (
        COUNT_BOUND,
        ColumnarRelation,
        count_acyclic_join_columnar,
        message_tree,
    )

    tree, share_vars = message_tree(relations)

    # variables charged at each node: those absent from the parent
    charged: Dict[int, Tuple[Variable, ...]] = {}
    seen_top: Set[Variable] = set()
    for node in tree.top_down():
        parent = tree.parent[node]
        here = relations[node].variables
        if parent is None:
            mine = tuple(here)
        else:
            parent_vars = set(relations[parent].variables)
            mine = tuple(v for v in here if v not in parent_vars and v not in seen_top)
        charged[node] = mine
        seen_top.update(mine)

    unweighted = weights is None or (
        isinstance(weights, WeightFunction) and weights.is_ones())
    if all(isinstance(r, ColumnarRelation)
           and r.dictionary is relations[0].dictionary
           for r in relations):
        if unweighted:
            # int64 sums are exact below the bound; past it, the
            # per-tuple DP below counts in Python ints
            if math.prod(len(r) for r in relations) < COUNT_BOUND:
                with obs.span("count.message_passing", backend="columnar",
                              nodes=len(relations)):
                    return count_acyclic_join_columnar(relations, tree,
                                                       share_vars)
        elif isinstance(weights, WeightFunction):
            # weighted vectorized path: per-row weight gathers; falls
            # back to the exact per-tuple DP when the weights aren't
            # machine floats (see WeightFunction.code_table), or are
            # integral with a total that may have rounded
            weighted = _row_weights(relations, charged, weights)
            if weighted is not None:
                row_weights, integral_weights = weighted
                with obs.span("count.message_passing",
                              backend="columnar_weighted",
                              nodes=len(relations)):
                    total = count_acyclic_join_columnar(
                        relations, tree, share_vars, row_weights)
                if not integral_weights:
                    return total
                if abs(total) < 2 ** 53:
                    return int(total)

    # messages[child]: key over shared-with-parent vars -> sum of weights
    with obs.span("count.message_passing", backend="tuple",
                  nodes=len(relations)):
        messages: Dict[int, Dict[Tuple[Any, ...], Any]] = {}
        for node in tree.bottom_up():
            rel = relations[node]
            shared = share_vars[node]
            charged_pos = [rel.position(v) for v in charged[node]]
            shared_pos = [rel.position(v) for v in shared]
            child_info = [
                (messages[c],
                 [rel.position(v) for v in share_vars[c]])
                for c in tree.children[node]
            ]
            msg: Dict[Tuple[Any, ...], Any] = {}
            for t in rel:
                value: Any = 1
                for v_pos in charged_pos:
                    value = value * w(t[v_pos])
                dead = False
                for child_msg, key_pos in child_info:
                    factor = child_msg.get(tuple(t[p] for p in key_pos))
                    if factor is None:
                        dead = True
                        break
                    value = value * factor
                if dead:
                    continue
                key = tuple(t[p] for p in shared_pos)
                msg[key] = msg.get(key, 0) + value
            messages[node] = msg

        root_msg = messages[tree.root]
        return root_msg.get((), 0)


def _row_weights(relations: Sequence[Any],
                 charged: Dict[int, Tuple[Variable, ...]],
                 weights: WeightFunction
                 ) -> Optional[Tuple[Dict[int, Any], bool]]:
    """Each columnar node's row weights (the product of its charged
    variables' weights), and whether every weight is integral; None
    when a weight is no machine float, or when integral weights, some
    negative, could take a float64 sum past 2^53, where it would round.
    Non-negative ones need no bound: every value that feeds a nonzero
    term is at most the total, and rounding is monotone, so a float
    total below 2^53 is exact (the caller recounts past it).

    The weights are gathered from a table over the charged columns'
    distinct codes alone (:meth:`WeightFunction.code_table`), so the
    cost follows the counted relations, not the process-wide
    dictionary they are encoded in."""
    import numpy as np

    from repro.engine.columnar import _unique_inverse

    cols = [(node, relations[node].column(v))
            for node, mine in charged.items() for v in mine]
    codes, inverse = _unique_inverse(np.concatenate([c for _n, c in cols]))
    table = weights.code_table(relations[0].dictionary, codes)
    if table is None:
        return None
    integral = bool(np.all(np.isfinite(table) & (table == np.floor(table))))
    if integral and table.min(initial=0) < 0:
        # no sum exceeds (join size bound) * (largest weight)^(charged variables)
        top = max(1, int(np.abs(table).max(initial=0)))
        if math.prod(len(r) for r in relations) * top ** len(cols) >= 2 ** 53:
            return None
    per_cell = table[inverse]
    out = {node: np.ones(len(relations[node]), dtype=np.float64)
           for node in charged}
    start = 0
    for node, col in cols:
        out[node] = out[node] * per_cell[start:start + len(col)]
        start += len(col)
    return out, integral


def count_quantifier_free_acyclic(cq: ConjunctiveQuery, db: Database,
                                  weights: Optional[WeightFunction] = None,
                                  engine=None) -> Any:
    """#F-ACQ^0 (Theorem 4.21): weighted count of a projection-free ACQ,
    cold, over the materialised atoms; it keeps no plan and no state."""
    if not cq.is_quantifier_free():
        raise UnsupportedQueryError(
            "count_quantifier_free_acyclic needs a quantifier-free query; "
            "use count_acq for projections"
        )
    if cq.has_comparisons():
        raise UnsupportedQueryError("comparisons are not supported in counting")
    from repro.eval.yannakakis import materialise_atoms

    return count_full_acyclic_join(materialise_atoms(cq, db, engine), weights)


def derive_counting_join(cq: ConjunctiveQuery, db: Database, engine=None
                         ) -> Optional[List[VarRelation]]:
    """The star-size decomposition behind Theorem 4.28.

    Returns derived relations over free variables whose join *is* phi(D),
    or None when the query is unsatisfiable: the reduced relations of the
    atoms over free variables only, plus one relation pi_F(phi(D)) per
    S-component with free vertices F
    (:func:`repro.eval.yannakakis.free_join`).  Cost ||D||^{O(s)}, s the
    quantified star size: each component's join-project keeps at most
    ||D|| rows per row of its projection, which has at most ||D||^s.

    The decomposition (the expensive, per-database part) is served from
    the plan cache on repeats; returned relations are shallow copies.
    """
    from repro.core.plancache import cached_plan
    from repro.engine import resolve_engine

    eng = resolve_engine(engine)
    derived = cached_plan(
        "counting_join", cq, db, eng.name,
        lambda: free_join(cq, full_reducer(cq, db, engine=eng)[1]))
    if derived is None:
        return None
    return [r.copy() for r in derived]


def _count_slot(cq: ConjunctiveQuery, db: Database, engine) -> Any:
    """An unweighted count from its plan-cache slot (kind ``count``,
    keyed on no engine): the total a miss reduces, derives
    (:func:`~repro.eval.yannakakis.free_join`) and counts cold, until a
    write.  Then a quantifier-free count's slot holds the
    :class:`~repro.dynamic.delta.DeltaCounter` that
    :meth:`~repro.dynamic.delta.DeltaCounter.caught_up` seeds or
    refreshes, and any other count's rebuilds cold."""
    from repro.core.plancache import cached_plan
    from repro.dynamic.delta import DeltaCounter
    from repro.engine import resolve_engine

    eng = resolve_engine(engine)

    def build() -> Any:
        tree = cached_join_tree(cq.hypergraph())
        derived = free_join(cq, full_reducer(cq, db, tree, engine=eng)[1])
        return 0 if derived is None else count_full_acyclic_join(derived)

    refresher = None
    if DeltaCounter.supports(cq):
        def refresher(plan, deltas):
            return DeltaCounter.caught_up(plan, cq, db, deltas)
    plan = cached_plan("count", cq, db, "-", build, refresher=refresher)
    return plan.total() if isinstance(plan, DeltaCounter) else plan


def count_acq(cq: ConjunctiveQuery, db: Database,
              weights: Optional[WeightFunction] = None,
              engine=None) -> Any:
    """#ACQ via quantified star size (Theorem 4.28): weighted count of the
    *answers* (distinct head tuples) of an acyclic CQ.

    :func:`derive_counting_join` replaces each S-component by its
    projection onto its free vertices; the join of the derived relations
    is phi(D), a quantifier-free acyclic join counted by the Theorem 4.21
    DP.  A quantifier-free query's derived join is its reduced atoms.

    An unweighted count keeps its total in one plan-cache slot
    (:func:`_count_slot`): a repeat on an unwritten database reads it
    and runs no kernel, and a write turns a quantifier-free count's slot
    into a maintained state.  A weighted count derives and runs the DP.

    Weights apply to the free variables (answers are tuples over the
    head), matching the #F-CQ definition of Section 4.4.
    """
    if cq.has_comparisons():
        raise UnsupportedQueryError("comparisons are not supported in counting")
    if not cq.is_acyclic():
        raise NotAcyclicError(f"query {cq!r} is not acyclic; use count_cq_naive")
    with obs.span("count.acq", atoms=len(cq.atoms)):
        if weights is None or (isinstance(weights, WeightFunction)
                               and weights.is_ones()):
            return _count_slot(cq, db, engine)
        derived = derive_counting_join(cq, db, engine=engine)
        if derived is None:
            return 0
        # a satisfiable Boolean query derives nothing to join: one answer
        return count_full_acyclic_join(derived, weights)


def count_cq_naive(cq: ConjunctiveQuery, db: Database,
                   weights: Optional[WeightFunction] = None) -> Any:
    """Ground truth: materialise the answers, sum the weights."""
    w = weights or WeightFunction.ones()
    total: Any = 0
    for tup in evaluate_cq_naive(cq, db):
        total = total + w.tuple_weight(tup)
    return total
