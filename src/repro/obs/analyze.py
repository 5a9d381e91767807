"""Estimated-vs-actual introspection: does a plan behave as classified?

``core/classify.py`` predicts a *shape* for every query — free-connex
ACQs enumerate with constant delay (Theorem 4.6), acyclic queries
preprocess in linear time (Theorem 4.2) — and the instrumented pipeline
records what actually happened: per-operator cardinalities and timings
on span attributes, each block's delay on the tracer.  This module runs
a query under full instrumentation and lines the two up, operator by
operator:

* **materialise** — row counts must track ``||D||``; the phase's wall
  time must scale ~linearly when the instance doubles;
* **semijoin** (both reducer passes) — a semijoin filters its left
  input, so ``out <= in_left`` is an invariant, not an expectation;
* **full_reduce** — the preprocessing bound: wall time vs instance
  size across the two runs, against the classifier's verdict;
* **block.expand** (per join-tree level) — on fully reduced inputs
  every probe makes progress (the no-dead-end argument), so
  ``rows_out >= rows_in`` and ``enum.dead_ends`` must stay zero;
* **enumerate** — the delay class: a constant-delay plan's p99 must
  not move when ``||D||`` doubles.

Synthetic runs execute twice (``size`` and ``2 * size``) so the scale
checks have two points; with a user-supplied database only the
single-run invariants apply.  The output is a plain data dict
(:func:`analyze`), an ASCII table (:func:`render_text` — the ``repro
analyze`` subcommand), and an HTML panel
(:func:`repro.obs.report.render_analyze_html`).
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs

#: per-answer delays below this (ns) are scheduler/clock jitter — growth
#: factors computed on them say nothing about the plan
DELAY_FLOOR_NS = 10_000
#: phases faster than this (ns) are too small for scaling judgements
TIME_FLOOR_NS = 1_000_000
#: doubling ||D|| may grow a "linear" phase by up to 2x this factor
#: before we flag it (caches, allocator effects, warmup)
SCALE_SLACK = 3.0
#: a "constant-delay" p99 may grow by up to this factor across sizes
DELAY_SLACK = 4.0

OK = "ok"
FLAG = "FLAG"
INFO = "info"


# ------------------------------------------------------------------ running


def _synthetic_database(query: Any, size: int, seed: int):
    """A random database matching the query's relation schema."""
    from repro.data import generators
    from repro.logic.cq import ConjunctiveQuery
    from repro.logic.ucq import UnionOfConjunctiveQueries

    if isinstance(query, ConjunctiveQuery):
        disjuncts = [query]
    elif isinstance(query, UnionOfConjunctiveQueries):
        disjuncts = list(query.disjuncts)
    else:
        raise ValueError(
            "analyze needs an explicit database for this query class "
            "(synthetic data is only generated for CQs and UCQs)")
    schema: Dict[str, int] = {}
    for d in disjuncts:
        for atom in d.atoms:
            arity = schema.setdefault(atom.relation, atom.arity)
            if arity != atom.arity:
                raise ValueError(
                    f"relation {atom.relation} used with arities "
                    f"{arity} and {atom.arity}")
    return generators.random_database(schema, max(4, size // 4), size,
                                      seed=seed)


def _run_instrumented(query: Any, db: Any,
                      engine: Any = None) -> Dict[str, Any]:
    """One fully traced evaluation: span aggregates, answer count, wall
    time, and the run's own ``(gap_ns, answers)`` block delays."""
    from repro.core.planner import enumerate_answers

    # collect first, so a collection owed by earlier allocations never
    # lands inside this run's phase timings (a full pass over a large
    # heap can take tens of ms, and the scale checks compare single runs)
    gc.collect()
    start = time.perf_counter_ns()
    with obs.capture() as tracer:
        answers = 0
        for _row in enumerate_answers(query, db, engine=engine):
            answers += 1
    wall_ns = time.perf_counter_ns() - start
    context = tracer.context
    return {
        "answers": answers,
        "wall_ns": wall_ns,
        "delays": tracer.delays,
        "spans": _aggregate_spans(tracer),
        "counters": dict(tracer.counters),
        "trace_id": context.trace_id if context is not None else None,
    }


def delay_percentile(delays: Sequence[Tuple[int, int]], q: float) -> int:
    """The exact ``q``-quantile (q in [0, 1)) of per-answer delay in ns
    over ``(gap_ns, answers)`` blocks: each block counts its
    ``gap_ns // answers`` share ``answers`` times, and the index is
    :meth:`repro.perf.delay.DelayProfile.percentile`'s.  0 without
    answers."""
    shares = sorted((gap // n, n) for gap, n in delays if n > 0)
    total = sum(n for _share, n in shares)
    rank = min(total - 1, int(q * total))
    for share, n in shares:
        rank -= n
        if rank < 0:
            return share
    return 0


def _aggregate_spans(tracer: Any) -> Dict[str, Dict[str, Any]]:
    """Group spans into operator buckets: total duration, call count,
    and the attribute dicts (cardinalities live there)."""
    agg: Dict[str, Dict[str, Any]] = {}
    for span in tracer.spans:
        key = span.name
        if span.name == "yannakakis.semijoin":
            key = f"semijoin[{span.attrs.get('phase', '?')}]"
        elif span.name == "block.expand":
            key = f"block.expand[level={span.attrs.get('level', '?')}]"
        entry = agg.setdefault(key, {"count": 0, "dur_ns": 0, "attrs": []})
        entry["count"] += 1
        entry["dur_ns"] += span.duration_ns
        entry["attrs"].append(span.attrs)
    return agg


# ------------------------------------------------------------------- checks


def _sum_attr(entry: Optional[Dict[str, Any]], key: str) -> int:
    if not entry:
        return 0
    return sum(int(a.get(key, 0)) for a in entry["attrs"]
               if isinstance(a.get(key), (int, float)))


def _scale_status(dur1: int, dur2: Optional[int],
                  factor: float) -> (str, str):
    """Judge a phase's growth when the instance doubled: returns
    (status, note).  INFO when there is no second run or the phase is
    below the timing noise floor."""
    if dur2 is None:
        return INFO, "single run (no scale check)"
    if max(dur1, dur2) < TIME_FLOOR_NS:
        return INFO, "below timing noise floor"
    if dur1 <= 0:
        return INFO, "first run not timed"
    # damp the ratio with the noise floor: millisecond-scale phases
    # swing several-x on cache/warmup effects alone, and a raw ratio
    # would flag them; a genuinely superlinear phase at real sizes
    # dwarfs the floor and keeps its ratio
    ratio = (dur2 + TIME_FLOOR_NS) / (dur1 + TIME_FLOOR_NS)
    if ratio > 2.0 * factor:
        return FLAG, f"time grew {ratio:.1f}x on a 2x instance"
    return OK, f"time grew {ratio:.1f}x on a 2x instance"


def analyze(query: Any, db: Any = None, *, size: int = 4000,
            seed: int = 0, engine: Any = None,
            scale: Optional[bool] = None) -> Dict[str, Any]:
    """Run ``query`` instrumented and compare actuals to expectations.

    With ``db=None`` a synthetic database of ``size`` tuples per
    relation is generated and — unless ``scale=False`` — the query also
    runs at ``2 * size`` so the linear/constant expectations have two
    points to compare.  Returns a JSON-able analysis dict; see
    :func:`render_text` for the human rendering.
    """
    from repro.core.classify import classify, plan_for
    from repro.logic.cq import ConjunctiveQuery
    from repro.obs.fitting import expected_verdict

    if scale is None:
        scale = db is None
    if db is None:
        db = _synthetic_database(query, size, seed)
        db2 = _synthetic_database(query, 2 * size, seed) if scale else None
    else:
        try:
            size = sum(len(r) for r in db.relations())
        except (AttributeError, TypeError):
            pass
        db2 = None

    report = classify(query)
    facts = {k: report.facts[k] for k in ("acyclic", "free_connex")
             if k in report.facts}
    if isinstance(query, ConjunctiveQuery):
        # the route that ran, and the core's size when the core ran
        facts.update(plan_for(query).span_attrs())
    try:
        expected_delay = expected_verdict(query, "delay")
        expected_prep = expected_verdict(query, "preprocessing")
    except ValueError:  # pragma: no cover - fixed metric kinds
        expected_delay = expected_prep = None

    run1 = _run_instrumented(query, db, engine=engine)
    run2 = _run_instrumented(query, db2, engine=engine) if db2 is not None \
        else None

    rows: List[Dict[str, Any]] = []

    def row(operator: str, expected: str, actual: str, status: str,
            note: str = "") -> None:
        rows.append({"operator": operator, "expected": expected,
                     "actual": actual, "status": status, "note": note})

    spans1 = run1["spans"]
    spans2 = run2["spans"] if run2 else {}

    # materialise: linear in ||D||
    mat1 = spans1.get("yannakakis.materialise_atoms")
    if mat1:
        rows1 = _sum_attr(mat1, "rows")
        status, note = _scale_status(
            mat1["dur_ns"],
            spans2.get("yannakakis.materialise_atoms", {}).get("dur_ns")
            if run2 else None,
            SCALE_SLACK)
        row("materialise", "O(||D||) rows, linear time",
            f"{rows1} rows in {mat1['dur_ns'] / 1e6:.2f} ms", status, note)

    # semijoins: out <= in_left is an invariant of the operator
    for phase in ("bottom_up", "top_down"):
        key = f"semijoin[{phase}]"
        entry = spans1.get(key)
        if not entry:
            continue
        in_left = _sum_attr(entry, "in_left")
        out = _sum_attr(entry, "out")
        bad = [a for a in entry["attrs"]
               if isinstance(a.get("out"), (int, float))
               and isinstance(a.get("in_left"), (int, float))
               and a["out"] > a["in_left"]]
        status = FLAG if bad else OK
        note = (f"{len(bad)} step(s) grew their left input" if bad
                else f"{entry['count']} steps")
        row(key, "filter: out <= in_left",
            f"in {in_left} -> out {out}", status, note)

    # per-symbol work sharing: repeated-symbol queries should build each
    # (symbol, version) artefact once and coalesce identical reduction
    # passes — informational, the hit pattern depends on the query shape
    c1 = run1["counters"]
    ws_hits = c1.get("engine.symbol_workspace_hits", 0)
    ws_misses = c1.get("engine.symbol_workspace_misses", 0)
    coalesced = c1.get("yannakakis.coalesced_semijoins", 0)
    if ws_hits or ws_misses or coalesced:
        row("symbol_share", "one build per symbol per version",
            f"{ws_hits} hits / {ws_misses} misses, "
            f"{coalesced} coalesced semijoins",
            INFO, "shared per-symbol workspace")

    # preprocessing: the full reduce
    key = "yannakakis.full_reduce"
    entry = spans1.get(key)
    if entry:
        status, note = _scale_status(
            entry["dur_ns"],
            spans2.get(key, {}).get("dur_ns") if run2 else None,
            SCALE_SLACK)
        row(key, f"preprocessing: {expected_prep or 'no claim'}",
            f"{entry['dur_ns'] / 1e6:.2f} ms", status, note)

    # block expansion: no dead ends on reduced inputs
    levels = sorted(k for k in spans1 if k.startswith("block.expand["))
    for key in levels:
        entry = spans1[key]
        rows_in = _sum_attr(entry, "rows_in")
        rows_out = _sum_attr(entry, "rows_out")
        dead = [a for a in entry["attrs"]
                if isinstance(a.get("rows_out"), (int, float))
                and isinstance(a.get("rows_in"), (int, float))
                and a["rows_out"] < a["rows_in"]]
        status = FLAG if dead else OK
        note = (f"{len(dead)} probe(s) lost rows (dead ends)" if dead
                else f"{entry['count']} batch probes")
        row(key, "no dead ends: rows_out >= rows_in",
            f"in {rows_in} -> out {rows_out}", status, note)
    dead_ends = run1["counters"].get("enum.dead_ends", 0)
    if dead_ends:
        row("enum.dead_ends", "0 on fully reduced inputs",
            str(dead_ends), FLAG, "Theorem 4.6 invariant violated")

    # enumeration delay: the classifier's shape claim
    p99_1 = delay_percentile(run1["delays"], 0.99)
    expected = expected_delay or "no claim"
    status, note = INFO, ""
    actual = (f"p99 {p99_1 / 1e3:.1f} us over {run1['answers']} answers"
              if run1["delays"] else "no delay samples")
    if run2 is not None and run1["delays"] and run2["delays"]:
        p99_2 = delay_percentile(run2["delays"], 0.99)
        if expected_delay == "constant-delay":
            if (p99_2 > DELAY_SLACK * max(p99_1, DELAY_FLOOR_NS)):
                status = FLAG
                note = (f"p99 grew {p99_2 / max(p99_1, 1):.1f}x on a 2x "
                        f"instance — constant-delay contract broken")
            else:
                status, note = OK, (
                    f"p99 stable across sizes "
                    f"({p99_1 / 1e3:.1f} -> {p99_2 / 1e3:.1f} us)")
        else:
            status, note = INFO, (
                f"p99 {p99_1 / 1e3:.1f} -> {p99_2 / 1e3:.1f} us "
                f"(no constant-delay claim)")
    row("enumerate", f"delay: {expected}", actual, status, note)

    return {
        "query": str(query),
        "query_class": report.query_class,
        "facts": facts,
        "expected": {"delay": expected_delay,
                     "preprocessing": expected_prep},
        "sizes": [size] + ([2 * size] if run2 is not None else []),
        "answers": [run1["answers"]] + (
            [run2["answers"]] if run2 is not None else []),
        "wall_ns": [run1["wall_ns"]] + (
            [run2["wall_ns"]] if run2 is not None else []),
        "trace_ids": [t for t in (
            run1["trace_id"], run2["trace_id"] if run2 else None) if t],
        "rows": rows,
        "flagged": [r["operator"] for r in rows if r["status"] == FLAG],
    }


# ---------------------------------------------------------------- rendering


def render_text(analysis: Dict[str, Any]) -> str:
    """The ``repro analyze`` ASCII table."""
    lines = [f"query:  {analysis['query']}",
             f"class:  {analysis['query_class']}"
             + "".join(f", {k}={v}" for k, v in analysis["facts"].items()),
             "sizes:  " + " -> ".join(str(s) for s in analysis["sizes"])
             + "   answers: "
             + " -> ".join(str(a) for a in analysis["answers"])]
    if analysis["trace_ids"]:
        lines.append("traces: " + ", ".join(analysis["trace_ids"]))
    lines.append("")
    headers = ("operator", "expected", "actual", "status", "note")
    table = [headers] + [
        (r["operator"], r["expected"], r["actual"], r["status"], r["note"])
        for r in analysis["rows"]]
    widths = [max(len(str(row[i])) for row in table)
              for i in range(len(headers))]
    sep = "-+-".join("-" * w for w in widths)
    for i, row in enumerate(table):
        lines.append(" | ".join(str(c).ljust(w)
                                for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append(sep)
    flagged = analysis["flagged"]
    lines.append("")
    if flagged:
        lines.append(f"FLAGGED: {', '.join(flagged)} — actuals contradict "
                     f"the predicted class")
    else:
        lines.append("all operators within their predicted class")
    return "\n".join(lines)
