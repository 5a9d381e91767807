"""The query classifier: the survey's decision/counting/enumeration map
as one function.

For a conjunctive query the relevant structure is (Section 4):

====================  =========================  =========================
structure             enumeration                counting
====================  =========================  =========================
free-connex ACQ       constant delay (Thm 4.6)   ||D||^O(1) via star size 1
ACQ, star size s      linear delay (Thm 4.3)     ||D||^O(s) (Thm 4.28)
ACQ, unbounded s      linear delay (Thm 4.3)     #W[1]-hard (Thm 4.28)
cyclic CQ             no CD-lin (Thm 4.9*)       #P-hard in general
ACQ!=, free-connex    constant delay (Thm 4.20)  —
ACQ<                  W[1]-hard even to decide (Thm 4.15)
====================  =========================  =========================

(*) conditional on Mat-Mul / Hyperclique; decision for any ACQ is
O(||phi|| ||D||) by Yannakakis (Thm 4.2).  UCQs classify through union
extensions (Thm 4.13), NCQs through beta-acyclicity (Thm 4.31).

For a CQ the same analysis also fixes how it is executed: :func:`plan_for`
turns the facts into a :class:`Plan` (route, the query the route runs,
expected shapes) that the planner and the observability layer consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.report import ComplexityReport, TaskVerdict
from repro.logic.cq import ConjunctiveQuery
from repro.logic.fo import Formula
from repro.logic.ncq import NegativeConjunctiveQuery
from repro.logic.prefix import classify_prefix
from repro.logic.ucq import UnionOfConjunctiveQueries

QueryLike = Union[ConjunctiveQuery, UnionOfConjunctiveQueries,
                  NegativeConjunctiveQuery, Formula]


def classify(query: QueryLike) -> ComplexityReport:
    """Structural analysis + per-task verdicts for any supported query."""
    from repro.logic.signed import SignedConjunctiveQuery

    if isinstance(query, SignedConjunctiveQuery):
        return _classify_signed(query)
    if isinstance(query, ConjunctiveQuery):
        return _classify_cq(query)
    if isinstance(query, UnionOfConjunctiveQueries):
        return _classify_ucq(query)
    if isinstance(query, NegativeConjunctiveQuery):
        return _classify_ncq(query)
    if isinstance(query, Formula):
        return _classify_fo(query)
    raise TypeError(f"cannot classify object of type {type(query).__name__}")


# ------------------------------------------------------------------------- CQ


def _selfjoin_core_facts(cq: ConjunctiveQuery,
                         facts) -> Optional[ConjunctiveQuery]:
    """Carmeli–Segoufin-style structural analysis of a self-join CQ.

    A query with self-joins is equivalent to its homomorphic core
    (Chandra–Merlin), which may identify same-symbol atoms and land in
    an easier structural class — the paper's self-join-free dichotomies
    then apply to the core and transfer to the query (arXiv 2206.04988).
    Records ``core_*`` facts and returns the core when the analysis ran,
    ``None`` otherwise (comparisons make homomorphism reasoning unsound,
    so disequality queries skip it)."""
    if facts["has_disequalities"] or facts["has_order_comparisons"]:
        return None
    from repro.logic.containment import core
    from repro.logic.selfjoin import variable_identifications

    facts["variable_identifications"] = variable_identifications(cq)
    minimal = core(cq)
    facts["core_is_proper"] = len(minimal.atoms) < len(cq.atoms)
    facts["core_atoms"] = len(minimal.atoms)
    core_acyclic = minimal.without_comparisons().is_acyclic()
    facts["core_acyclic"] = core_acyclic
    if core_acyclic:
        cstar = minimal.quantified_star_size()
        facts["core_quantified_star_size"] = cstar
        facts["core_free_connex"] = cstar <= 1
    else:
        facts["core_free_connex"] = False
    return minimal


def _cq_facts(cq: ConjunctiveQuery
              ) -> Tuple[Dict[str, Any], Optional[ConjunctiveQuery]]:
    """The structural facts of a CQ, the *effective* ones included, and
    its homomorphic core when the self-join analysis computed one."""
    facts: Dict[str, Any] = {}
    facts["arity"] = cq.arity
    facts["self_join_free"] = cq.is_self_join_free()
    facts["quantifier_free"] = cq.is_quantifier_free()
    facts["has_order_comparisons"] = bool(cq.order_comparisons())
    facts["has_disequalities"] = bool(cq.disequalities())
    acyclic = cq.without_comparisons().is_acyclic()
    facts["acyclic"] = acyclic

    from repro.logic.selfjoin import selfjoin_signature

    facts["self_join_signature"] = selfjoin_signature(cq)
    minimal = (None if facts["self_join_free"]
               else _selfjoin_core_facts(cq, facts))
    # the *effective* structure is the best of the query and its core:
    # equivalent queries have identical answer sets, counts and delays,
    # so the plan (route and expected shapes, see plan_for) gates on
    # these, not on the syntactic shape
    facts["effective_acyclic"] = acyclic or facts.get("core_acyclic", False)
    if facts["has_order_comparisons"]:
        return facts, minimal
    stars = []
    if acyclic:
        star = cq.quantified_star_size()
        facts["quantified_star_size"] = star
        facts["free_connex"] = star <= 1
        stars.append(star)
    if facts.get("core_acyclic"):
        stars.append(facts["core_quantified_star_size"])
    facts["effective_free_connex"] = bool(stars) and min(stars) <= 1
    if stars:
        facts["effective_quantified_star_size"] = min(stars)
    return facts, minimal


def _classify_cq(cq: ConjunctiveQuery) -> ComplexityReport:
    facts, minimal = _cq_facts(cq)
    report = ComplexityReport(query_repr=repr(cq), query_class="CQ",
                              facts=facts)
    cored = minimal is not None
    acyclic = facts["acyclic"]

    if facts["has_order_comparisons"]:
        report.query_class = "ACQ<" if acyclic else "CQ<"
        report.verdicts.append(TaskVerdict(
            "decide", False, "W[1]-complete (query size as parameter)",
            "Theorem 4.15", "repro.eval.naive.cq_is_satisfiable_naive",
            caveat="order comparisons express k-clique even on acyclic queries",
        ))
        report.verdicts.append(TaskVerdict(
            "count", False, "at least as hard as deciding", "Theorem 4.15",
            "repro.counting.acq_count.count_cq_naive"))
        report.verdicts.append(TaskVerdict(
            "enumerate", False, "no efficient enumeration known", "Theorem 4.15",
            "repro.enumeration.disequality.FallbackDisequalityEnumerator"))
        return report

    if not acyclic:
        report.query_class = "cyclic CQ"
        from repro.hypergraph.edge_covers import agm_exponent

        facts["agm_exponent"] = round(agm_exponent(cq), 4)
        if cored and facts["core_acyclic"]:
            # the query only *looks* cyclic: identifying self-join atoms
            # yields an equivalent acyclic core, and every task rides on
            # the core's structure (Carmeli–Segoufin, arXiv 2206.04988)
            report.query_class = "cyclic CQ (acyclic core)"
            cs = "Carmeli-Segoufin (arXiv 2206.04988) via homomorphic core"
            cstar = facts["core_quantified_star_size"]
            report.verdicts.append(TaskVerdict(
                "decide", True, "O(||phi|| * ||D||) on the acyclic core",
                f"Theorem 4.2 + {cs}",
                "repro.eval.yannakakis.yannakakis_boolean"))
            if facts["core_free_connex"]:
                report.verdicts.append(TaskVerdict(
                    "count", True, "O(||phi|| * ||D||) on the core",
                    f"Theorems 4.21 / 4.28 + {cs}",
                    "repro.counting.acq_count.count_acq"))
                report.verdicts.append(TaskVerdict(
                    "enumerate", True,
                    "constant delay after linear preprocessing "
                    "(evaluate the free-connex core)",
                    f"Theorem 4.6 + {cs}",
                    "repro.enumeration.free_connex.FreeConnexEnumerator"))
            else:
                report.verdicts.append(TaskVerdict(
                    "count", True,
                    f"(||D|| + ||phi||)^O({cstar})  (core star size {cstar})",
                    f"Theorem 4.28 + {cs}",
                    "repro.counting.acq_count.count_acq"))
                report.verdicts.append(TaskVerdict(
                    "enumerate", False,
                    "not in Constant-Delay_lin (assuming Mat-Mul); "
                    "linear delay via the acyclic core",
                    f"Theorems 4.8 / 4.3 + {cs}",
                    "repro.enumeration.acq_linear.LinearDelayACQEnumerator",
                    caveat="conditional on Mat-Mul; the bound holds for "
                           "the query's core, hence for the query"))
            return report
        report.verdicts.append(TaskVerdict(
            "decide", None, "NP-complete in combined complexity",
            "Chandra-Merlin 1977 (Section 1)", "repro.eval.naive",
            caveat="polynomial data complexity via backtracking"))
        report.verdicts.append(TaskVerdict(
            "count", None, "#P-hard in combined complexity", "Theorem 4.22",
            "repro.counting.acq_count.count_cq_naive"))
        if facts["self_join_free"]:
            caveat = "conditional on Hyperclique"
        elif cored:
            # the core is still cyclic: no identification of self-join
            # atoms can remove the hard structure, so the self-join-free
            # lower bound transfers (Carmeli-Segoufin, arXiv 2206.04988)
            caveat = ("conditional on Hyperclique; the homomorphic core "
                      "stays cyclic, so the bound lifts to this "
                      "self-join query (Carmeli-Segoufin)")
        else:
            caveat = ("conditional lower bound; self-joins present and "
                      "comparisons block the core analysis")
        report.verdicts.append(TaskVerdict(
            "enumerate", False,
            "not in Constant-Delay_lin (assuming Hyperclique)",
            "Theorem 4.9", "repro.eval.naive",
            caveat=caveat))
        return report

    star = facts["quantified_star_size"]
    free_connex = facts["free_connex"]
    eff_star = facts["effective_quantified_star_size"]
    report.query_class = "ACQ" + ("!=" if facts["has_disequalities"] else "")

    report.verdicts.append(TaskVerdict(
        "decide", True, "O(||phi|| * ||D||)", "Theorem 4.2 (Yannakakis)",
        "repro.eval.yannakakis.yannakakis_boolean"))

    cs = "Carmeli-Segoufin (arXiv 2206.04988) via homomorphic core"
    thm_enum = "Theorem 4.20" if facts["has_disequalities"] else "Theorem 4.6"
    if free_connex:
        report.verdicts.append(TaskVerdict(
            "enumerate", True, "constant delay after linear preprocessing",
            thm_enum,
            "repro.enumeration.disequality.DisequalityEnumerator"
            if facts["has_disequalities"]
            else "repro.enumeration.free_connex.FreeConnexEnumerator"))
    elif cored and facts["core_free_connex"]:
        # not free-connex as written, but identifying self-join atoms
        # yields an equivalent free-connex core — decisively tractable
        report.verdicts.append(TaskVerdict(
            "enumerate", True,
            "constant delay after linear preprocessing "
            "(evaluate the free-connex core)",
            f"Theorem 4.6 + {cs}",
            "repro.enumeration.free_connex.FreeConnexEnumerator"))
    else:
        if facts["self_join_free"]:
            caveat = "conditional on Mat-Mul; linear delay achievable"
        elif cored:
            # the core is as hard as the query: the self-join-free
            # Mat-Mul bound transfers (Carmeli-Segoufin)
            caveat = ("conditional on Mat-Mul; the homomorphic core is "
                      "not free-connex, so the bound lifts to this "
                      "self-join query (Carmeli-Segoufin); linear delay "
                      "achievable")
        else:
            caveat = ("conditional on Mat-Mul; linear delay achievable "
                      "(self-joins present, comparisons block the core "
                      "analysis)")
        report.verdicts.append(TaskVerdict(
            "enumerate", False,
            "not in Constant-Delay_lin (assuming Mat-Mul); "
            "linear delay via Algorithm 2",
            "Theorems 4.8 / 4.3",
            "repro.enumeration.acq_linear.LinearDelayACQEnumerator",
            caveat=caveat))

    if facts["has_disequalities"]:
        report.verdicts.append(TaskVerdict(
            "count", None, "f(||phi||) * ||phi(D)|| * ||D||  (FPT)",
            "Section 4.3 ([69])", "repro.counting.acq_count.count_cq_naive",
            caveat="exact engine not specialised; naive baseline used"))
    elif star <= 1:
        report.verdicts.append(TaskVerdict(
            "count", True, "O(||phi|| * ||D||)", "Theorems 4.21 / 4.28",
            "repro.counting.acq_count.count_acq"))
    elif eff_star <= 1:
        report.verdicts.append(TaskVerdict(
            "count", True, "O(||phi|| * ||D||) on the core",
            f"Theorems 4.21 / 4.28 + {cs}",
            "repro.counting.acq_count.count_acq"))
    else:
        report.verdicts.append(TaskVerdict(
            "count", True,
            f"(||D|| + ||phi||)^O({eff_star})  (star size {eff_star})",
            "Theorem 4.28", "repro.counting.acq_count.count_acq",
            caveat="unbounded star size over a query class means #W[1]-hard"))
    return report


# ---------------------------------------------------------------------- plans


def expected_classes(facts: Dict[str, Any]
                     ) -> Tuple[Optional[str], Optional[str]]:
    """The (delay, preprocessing) shapes the theory predicts from a
    report's facts, in the :data:`repro.obs.fitting.VERDICTS` vocabulary:

    * effectively free-connex -> ``constant-delay`` (Theorem 4.6);
    * effectively acyclic -> ``linear`` delay (Theorem 4.3) and
      ``linear`` preprocessing (Theorems 4.2 / 4.6);
    * otherwise ``superlinear`` (Theorems 4.8 / 4.9 conditional bounds).

    Self-join queries gate on the *effective* structure, the best of the
    query and its homomorphic core (Carmeli-Segoufin, arXiv 2206.04988),
    because the planner runs the core.  Order comparisons carry no shape
    claim (even deciding is W[1]-hard), so both are ``None``."""
    if facts.get("has_order_comparisons"):
        return None, None
    acyclic = facts.get("effective_acyclic", False)
    if facts.get("effective_free_connex"):
        delay = "constant-delay"
    else:
        delay = "linear" if acyclic else "superlinear"
    return delay, "linear" if acyclic else "superlinear"


@dataclass(frozen=True)
class Plan:
    """How the planner executes one CQ, decided once from its facts.

    ``route`` is one of

    * ``free-connex``: Theorem 4.6 enumeration, Theorem 4.21 counting,
      Yannakakis decision;
    * ``acyclic``: Algorithm 2 (Theorem 4.3), star-size counting,
      Yannakakis decision;
    * ``cyclic``: naive evaluation;
    * ``disequalities``: the ACQ!= engine, falling back to backtracking;
    * ``order-comparisons``: backtracking.

    ``query`` is what the route runs: the homomorphic core (``on_core``)
    exactly when the effective facts come from it, i.e. a self-join query
    without comparisons that is cyclic or not free-connex; the query
    itself otherwise.  The core keeps the head, so its answers are the
    query's answers, tuple for tuple.
    """

    route: str
    query: ConjunctiveQuery
    on_core: bool
    expected_delay: Optional[str]
    expected_preprocessing: Optional[str]

    def span_attrs(self) -> Dict[str, Any]:
        """The attributes the planner spans carry."""
        if self.on_core:
            return {"route": self.route, "core_atoms": len(self.query.atoms)}
        return {"route": self.route}


#: memoised plans, keyed on the query's ordered form
_PLANS: Dict[Tuple[Any, ...], Plan] = {}
PLAN_MEMO_SIZE = 4096


def plan_for(cq: ConjunctiveQuery) -> Plan:
    """The memoised :class:`Plan` of a CQ.

    The key is the query's ordered form (name, head, atoms in order,
    comparisons), not its set-based equality: a re-parsed query costs
    one hash lookup, and two queries that differ only in atom order keep
    their own plans, hence their own enumeration orders.  The memo is
    emptied when it reaches :data:`PLAN_MEMO_SIZE` entries."""
    key = (cq.name, cq.head, cq.atoms, cq.comparisons)
    plan = _PLANS.get(key)
    if plan is None:
        if len(_PLANS) >= PLAN_MEMO_SIZE:
            _PLANS.clear()
        # two threads may build the same plan; both return the stored one
        plan = _PLANS.setdefault(key, _build_plan(cq))
    return plan


def _build_plan(cq: ConjunctiveQuery) -> Plan:
    facts, minimal = _cq_facts(cq)
    delay, preprocessing = expected_classes(facts)
    on_core = False
    if facts["has_order_comparisons"]:
        route = "order-comparisons"
    elif facts["has_disequalities"]:
        route = "disequalities"
    else:
        acyclic = facts["acyclic"]
        free_connex = facts.get("free_connex", False)
        # a route must fit the query it runs: an acyclic query switches
        # to its core only when the core is acyclic too, while a cyclic
        # one always runs the (smaller) core
        on_core = (minimal is not None and facts["core_is_proper"]
                   and not free_connex
                   and (facts["core_acyclic"] or not acyclic))
        if on_core:
            acyclic = facts["core_acyclic"]
            free_connex = facts["core_free_connex"]
        route = ("free-connex" if free_connex
                 else "acyclic" if acyclic else "cyclic")
    return Plan(route, minimal if on_core else cq, on_core, delay,
                preprocessing)


def _classify_signed(sq) -> ComplexityReport:
    """Signed queries (Section 4.5, [18]): upper bounds ride on the
    positive part's structure; the negative atoms add O(1) probes per
    candidate."""
    report = _classify_cq(sq.positive_core())
    report.query_class = "signed CQ"
    report.query_repr = repr(sq)
    report.facts["negative_atoms"] = len(sq.negative)
    for verdict in report.verdicts:
        if verdict.task == "enumerate" and verdict.tractable:
            verdict.tractable = None
            verdict.caveat = ("positive part is free-connex, but negated "
                              "atoms filter answers: only the polynomial-"
                              "delay fallback is implemented (the [18] "
                              "classification of signed queries is partial)")
            verdict.engine = "repro.logic.signed.evaluate_signed"
        elif verdict.task == "count":
            verdict.tractable = None
            verdict.engine = "repro.logic.signed.count_signed"
            verdict.caveat = "counting with negation is #SAT-flavoured"
        elif verdict.task == "decide":
            verdict.engine = "repro.logic.signed.decide_signed"
    return report


# ------------------------------------------------------------------------ UCQ


def _classify_ucq(ucq: UnionOfConjunctiveQueries) -> ComplexityReport:
    from repro.hypergraph.unionext import union_extension_plan

    report = ComplexityReport(query_repr=repr(ucq), query_class="UCQ")
    report.facts["n_disjuncts"] = len(ucq)
    all_fc = all(d.is_acyclic() and d.is_free_connex() for d in ucq
                 if not d.has_comparisons())
    report.facts["all_disjuncts_free_connex"] = all_fc and not any(
        d.has_comparisons() for d in ucq)
    plan = None
    if not any(d.has_comparisons() for d in ucq):
        try:
            plan = union_extension_plan(ucq)
        except Exception:
            plan = None
    report.facts["free_connex_ucq"] = plan is not None
    if plan is not None:
        report.verdicts.append(TaskVerdict(
            "enumerate", True,
            "constant amortised delay via union extensions",
            "Theorem 4.13", "repro.enumeration.ucq_union.UCQEnumerator",
            caveat="duplicate filtering uses output-size memory (see DESIGN.md)"))
    else:
        report.verdicts.append(TaskVerdict(
            "enumerate", None, "no free-connex union extension found",
            "Section 4.2", "repro.enumeration.ucq_union.MaterialisedUnionEnumerator",
            caveat="full UCQ classification is open (paper, Section 4.2)"))
    report.verdicts.append(TaskVerdict(
        "decide", True, "union of acyclic decisions",
        "Theorem 4.2", "repro.eval.modelcheck.model_check"))
    report.verdicts.append(TaskVerdict(
        "count", None, "no general tractable counting (inclusion-exclusion "
        "over disjuncts is exponential in k)", "Section 4.4",
        "repro.eval.naive"))
    return report


# ------------------------------------------------------------------------ NCQ


def _classify_ncq(ncq: NegativeConjunctiveQuery) -> ComplexityReport:
    report = ComplexityReport(query_repr=repr(ncq), query_class="NCQ")
    beta = ncq.is_beta_acyclic()
    from repro.hypergraph.jointree import is_alpha_acyclic

    report.facts["alpha_acyclic"] = is_alpha_acyclic(ncq.hypergraph())
    report.facts["beta_acyclic"] = beta
    if beta:
        report.verdicts.append(TaskVerdict(
            "decide", True, "quasi-linear time", "Theorem 4.31",
            "repro.csp.ncq_solver.decide_ncq",
            caveat="nest-point-driven Davis-Putnam; Boolean domains use the "
                   "clause translation"))
    else:
        report.verdicts.append(TaskVerdict(
            "decide", False, "as hard as SAT (assuming Triangle, not "
            "quasi-linear)", "Theorem 4.31 / Section 4.5",
            "repro.csp.ncq_solver.decide_ncq",
            caveat="alpha-acyclicity does not help: see "
                   "repro.reductions.sat_ncq"))
    report.verdicts.append(TaskVerdict(
        "count", None, "#SAT-hard in general", "Section 4.5",
        "repro.csp.ncq_solver.solve_negative_csp"))
    report.verdicts.append(TaskVerdict(
        "enumerate", None, "via backtracking", "Section 4.5",
        "repro.csp.ncq_solver.ncq_answers"))
    return report


# ------------------------------------------------------------------------- FO


def _classify_fo(formula: Formula) -> ComplexityReport:
    prefix = classify_prefix(formula)
    report = ComplexityReport(query_repr=repr(formula), query_class="FO")
    report.facts["prefix_class"] = prefix.name()
    report.facts["free_so_variables"] = sorted(
        s.name for s in formula.so_variables())
    report.verdicts.append(TaskVerdict(
        "decide", None,
        "PSPACE-complete combined; ||phi|| * ||D||^h data complexity; "
        "linear on bounded degree, pseudo-linear on low degree / nowhere "
        "dense",
        "Theorems 3.1 / 3.6 / 3.9", "repro.eval.naive.model_check_fo",
        caveat="sparsity engines take the local-pattern normal form "
               "(repro.enumeration.bounded_degree)"))
    if prefix.k == 0:
        report.verdicts.append(TaskVerdict(
            "count", True, "polynomial time (#Sigma_0)", "Theorem 5.3",
            "repro.counting.spectrum.count_sigma0"))
        report.verdicts.append(TaskVerdict(
            "enumerate", True,
            "delta-constant delay after polynomial precomputation",
            "Theorem 5.5", "repro.enumeration.gray.Sigma0SOEnumerator"))
    elif prefix.k == 1 and prefix.leading == "E":
        report.verdicts.append(TaskVerdict(
            "count", None, "#Sigma_1: #P-hard cases but admits an FPRAS",
            "Theorem 5.3 / Section 5.1", "repro.counting.approx.karp_luby_dnf",
            caveat="FPRAS shown for the #DNF-style fragment"))
        report.verdicts.append(TaskVerdict(
            "enumerate", True, "polynomial delay", "Theorem 5.5",
            "repro.eval.naive.fo_answers"))
    else:
        report.verdicts.append(TaskVerdict(
            "count", False, "#P-complete at Pi^rel_2 and above", "Theorem 5.3",
            "repro.counting.spectrum.count_so_bruteforce"))
        report.verdicts.append(TaskVerdict(
            "enumerate", False,
            "Pi_1 and above: not polynomial delay unless P = NP",
            "Theorem 5.5", "repro.eval.naive.fo_answers"))
    return report
