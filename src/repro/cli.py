"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``classify``
    Print the complexity report of a query::

        python -m repro classify "Q(x, y) :- R(x, z), S(z, y)"

``run``
    Evaluate a query against a database loaded from CSV files (one file
    per relation, named <Relation>.csv, comma-separated values; integers
    are parsed as such)::

        python -m repro run "Q(x) :- R(x, z), S(z, y)" --data ./tables \\
            [--count | --limit N]

``explain``
    Evaluate a query under tracing and print the span tree: plan-cache
    hits/misses, per-phase timings (preprocessing vs enumeration) and
    kernel counters.  Runs against ``--data`` or a synthetic database::

        python -m repro explain "Q(x) :- R(x, z), S(z, y)"

``analyze``
    Estimated vs actual: run one query under full instrumentation
    (twice, at n and 2n, when the data is synthetic) and print
    per-operator rows comparing measured cardinalities and timings
    against the classifier's predicted class::

        python -m repro analyze "Q(x) :- R(x, z), S(z, y)" [--html FILE]

``figures``
    Regenerate the paper's three figures as text.

``bench``
    Run the complexity suites, record every case into
    ``benchmarks/history/<suite>.jsonl`` and ``BENCH_<suite>.json`` under
    the canonical observatory schema, and print the verdict table
    (measured log-log slope + CI vs the shape the classifier
    predicts)::

        python -m repro bench --quick [--suite bench dynamic selfjoin]

    The suites are ``bench`` (free-connex delay and preprocessing,
    acyclic total time, Algorithm 2 delay, the triangle lower bound),
    ``dynamic`` (delta refresh vs cold rebuild) and ``selfjoin``
    (self-join queries on the per-symbol workspace).
    ``--gate fail`` turns a regression of a case just run against its
    rolling baseline into a nonzero exit code (default: warn only).

``report``
    Render the benchmark history as a self-contained HTML/SVG dashboard
    (trajectories, scaling sweeps, verdicts, regression flags)::

        python -m repro report -o report.html [--gate fail]

``run``, ``explain`` and the benchmarks accept ``--trace FILE`` (Chrome
trace-event JSON for chrome://tracing / Perfetto) and ``--metrics``
(flat JSON counters/gauges on stderr); the ``REPRO_TRACE`` environment
variable does the same without flags.

A library error (:class:`~repro.errors.ReproError`: a malformed query or
CSV row, an unsupported query, an unknown engine) prints one
``repro: error: ...`` line on stderr and exits with status 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, List, Optional, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.errors import ConfigurationError, MalformedQueryError, ReproError


def _parse_value(text: str) -> Any:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return text


def load_csv_database(directory: str) -> Database:
    """Load every ``*.csv`` in ``directory`` as one relation each.

    A row whose width differs from the file's first row raises
    :class:`~repro.errors.MalformedQueryError` naming the file and line;
    a directory that cannot be listed raises
    :class:`~repro.errors.ConfigurationError`.
    """
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read data directory {directory!r}: "
            f"{exc.strerror}") from None
    db = Database()
    for name in names:
        if not name.endswith(".csv"):
            continue
        path = os.path.join(directory, name)
        rows: List[tuple] = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                row = tuple(_parse_value(v) for v in line.split(","))
                if rows and len(row) != len(rows[0]):
                    raise MalformedQueryError(
                        f"{path}, line {lineno}: row has {len(row)} "
                        f"values, the first row has {len(rows[0])}")
                rows.append(row)
        if rows:
            db.add_relation(Relation(name[:-4], len(rows[0]), rows))
    return db


def cmd_classify(args: argparse.Namespace) -> int:
    """Print the complexity report of the given query."""
    from repro.core.classify import classify
    from repro.logic.parser import parse_query

    query = parse_query(args.query)
    print(classify(query).render())
    return 0


def _select_engine(args: argparse.Namespace) -> None:
    """Apply a --engine flag (if given) to the process-wide selection."""
    name = getattr(args, "engine", None)
    if name:
        from repro.engine import set_engine

        set_engine(name)
    plan_cache = getattr(args, "plan_cache", None)
    if plan_cache is not None:
        from repro.core.plancache import set_plan_cache_enabled

        set_plan_cache_enabled(plan_cache == "on")
    incremental = getattr(args, "incremental", None)
    if incremental is not None:
        from repro.core.plancache import set_incremental_enabled

        set_incremental_enabled(incremental)


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    """The shared enumeration-pipeline knobs (--engine and friends)."""
    p.add_argument("--engine", default=None,
                   help="relational backend: tuple (default) or columnar "
                        "(also via the REPRO_ENGINE environment variable)")
    p.add_argument("--block-size", type=int, default=None,
                   help="answers per batched emission block on the columnar "
                        "backend (default 1024, env REPRO_BLOCK_SIZE; <= 0 "
                        "forces tuple-at-a-time enumeration)")
    p.add_argument("--plan-cache", choices=("on", "off"), default=None,
                   help="toggle the cross-query plan/preprocessing cache "
                        "(default on, env REPRO_PLAN_CACHE)")
    p.add_argument("--incremental", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="delta-propagated plan maintenance: refresh cached "
                        "plans through per-relation delta logs instead of "
                        "rebuilding after updates (default off, env "
                        "REPRO_INCREMENTAL; needs the plan cache on)")


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    """The shared observability knobs (--trace / --metrics)."""
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a Chrome trace-event JSON of the run "
                        "(open in chrome://tracing or Perfetto); the "
                        "REPRO_TRACE environment variable does the same")
    p.add_argument("--metrics", action="store_true",
                   help="dump flat JSON metrics (counters, gauges, "
                        "plan-cache stats) to stderr after the run")


def _obs_setup(args: argparse.Namespace):
    """Install a fresh tracer when --trace/--metrics ask for one.

    Returns (tracer, previous) to hand to :func:`_obs_finish`; tracer is
    None when neither flag was given (the REPRO_TRACE environment path
    is then still honoured by the obs module itself)."""
    if not (getattr(args, "trace", None) or getattr(args, "metrics", False)):
        return None, None
    from repro import obs

    previous = obs.tracer()
    return obs.enable(), previous


def _obs_finish(args: argparse.Namespace, tracer, previous) -> None:
    """Emit the requested trace/metrics outputs and restore the tracer."""
    if tracer is None:
        return
    import json

    from repro import obs

    if getattr(args, "trace", None):
        obs.write_chrome_trace(args.trace, tracer)
        print(f"wrote trace {args.trace}", file=sys.stderr)
    if getattr(args, "metrics", False):
        print(json.dumps(obs.metrics(tracer), indent=2, sort_keys=True),
              file=sys.stderr)
    if previous is not None and previous.enabled:
        obs.enable(previous)
    else:
        obs.disable()


def cmd_run(args: argparse.Namespace) -> int:
    """Evaluate a query over CSV relations (count, limit supported)."""
    from repro.core.planner import count, enumerate_answers
    from repro.logic.parser import parse_query

    _select_engine(args)
    tracer, previous = _obs_setup(args)
    query = parse_query(args.query)
    db = load_csv_database(args.data)
    try:
        if args.count:
            print(count(query, db))
            return 0
        emitted = 0
        for row in enumerate_answers(query, db, block_size=args.block_size):
            print("\t".join(str(v) for v in row))
            emitted += 1
            if args.limit is not None and emitted >= args.limit:
                break
        if emitted == 0:
            print("(no answers)", file=sys.stderr)
        return 0
    finally:
        _obs_finish(args, tracer, previous)


def _synthetic_database(query, size: int, seed: int) -> Database:
    """A random database matching the query's relation schema (for
    ``explain`` without ``--data``)."""
    from repro.data import generators
    from repro.logic.cq import ConjunctiveQuery
    from repro.logic.ucq import UnionOfConjunctiveQueries

    if isinstance(query, ConjunctiveQuery):
        disjuncts = [query]
    elif isinstance(query, UnionOfConjunctiveQueries):
        disjuncts = list(query.disjuncts)
    else:
        raise SystemExit(
            "explain needs --data for this query class (synthetic data is "
            "only generated for CQs and UCQs)"
        )
    schema: dict = {}
    for d in disjuncts:
        for atom in d.atoms:
            arity = schema.setdefault(atom.relation, atom.arity)
            if arity != atom.arity:
                raise SystemExit(
                    f"relation {atom.relation} used with arities {arity} "
                    f"and {atom.arity}"
                )
    return generators.random_database(schema, max(4, size // 4), size,
                                      seed=seed)


def cmd_explain(args: argparse.Namespace) -> int:
    """Trace one evaluation and print the span tree + counters."""
    from repro import obs
    from repro.core.planner import count, enumerate_answers
    from repro.logic.parser import parse_query

    _select_engine(args)
    query = parse_query(args.query)
    if args.data:
        db = load_csv_database(args.data)
    else:
        db = _synthetic_database(query, args.size, args.seed)
    with obs.capture() as tr:
        if args.count:
            result = count(query, db)
            outcome = f"count: {result}"
        else:
            emitted = 0
            for _row in enumerate_answers(query, db,
                                          block_size=args.block_size):
                emitted += 1
                if args.limit is not None and emitted >= args.limit:
                    break
            outcome = f"answers: {emitted}"
    print(f"query: {query}")
    source = args.data if args.data else \
        f"synthetic ({args.size} tuples/relation, seed {args.seed})"
    print(f"database: {source}")
    print(outcome)
    print()
    print(obs.render_explain(tr))      # footer carries the plan-cache line
    _print_incremental_stats()
    if args.trace:
        obs.write_chrome_trace(args.trace, tr)
        print(f"wrote trace {args.trace}", file=sys.stderr)
    if args.metrics:
        import json

        print(json.dumps(obs.metrics(tr), indent=2, sort_keys=True),
              file=sys.stderr)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run one query fully instrumented and print the per-operator
    estimated-vs-actual table; ``--html`` renders the panel."""
    from repro.logic.parser import parse_query
    from repro.obs.analyze import analyze, render_text

    _select_engine(args)
    query = parse_query(args.query)
    db = load_csv_database(args.data) if args.data else None
    analysis = analyze(query, db, size=args.size, seed=args.seed,
                       scale=args.scale)
    print(render_text(analysis))
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(analysis, fh, indent=2, default=str)
            fh.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    if args.html:
        from repro.obs.report import write_analyze_html

        write_analyze_html(args.html, analysis)
        print(f"wrote {args.html}", file=sys.stderr)
    if args.strict and analysis["flagged"]:
        print(f"analyze: {len(analysis['flagged'])} operator(s) contradict "
              f"the predicted class — failing (--strict)", file=sys.stderr)
        return 1
    return 0


def _print_plan_cache_stats() -> None:
    """Two-line plan-cache health summary (doctor, run/count --metrics)."""
    from repro.core.plancache import plan_cache

    st = plan_cache().stats()
    print(f"plan cache: {st['hits']} hits, {st['misses']} misses, "
          f"{st['evictions']} evictions ({st['entries']} entries, "
          f"maxsize {st['maxsize']})")
    _print_incremental_stats()


def _print_incremental_stats() -> None:
    """The delta-refresh half of the summary (explain prints the
    plan-cache line through the render_explain footer already)."""
    from repro.core.plancache import incremental_enabled, plan_cache

    st = plan_cache().stats()
    print(f"incremental: {st['refreshes']} refreshes, "
          f"{st['refresh_overflows']} delta-log overflows, "
          f"{st['refresh_fallbacks']} refresher fallbacks "
          f"({'on' if incremental_enabled() else 'off'})")


#: timer-overhead sanity window for slope fitting: below 10ns the
#: calibration is suspiciously optimistic (vDSO fast path misreported),
#: above 10µs the clock itself would drown the delays being measured
TIMER_OVERHEAD_SANE_NS = (10, 10_000)

#: machine-noise bar: coefficient of variation of a fixed CPU-bound
#: workload above which log-log slope fits are untrustworthy (shared CI
#: containers routinely exceed it)
NOISE_CV_THRESHOLD = 0.25


def _doctor_environment() -> None:
    """Measurement-health checks: timer-overhead calibration sanity and
    a machine-noise estimate (both surfaced as gauges on the active
    tracer, so ``--metrics`` dumps record them alongside the run)."""
    import statistics as _stats
    import time as _time

    from repro import obs
    from repro.perf.delay import timer_overhead_ns

    overhead = timer_overhead_ns()
    lo, hi = TIMER_OVERHEAD_SANE_NS
    obs.gauge("doctor.timer_overhead_ns", overhead)
    if lo <= overhead <= hi:
        print(f"timer overhead: {overhead} ns (ok, within [{lo}ns, {hi}ns])")
    else:
        print(f"timer overhead: {overhead} ns — WARNING: outside the sane "
              f"window [{lo}ns, {hi}ns]; delay measurements and slope "
              f"fits are unreliable on this machine")
    samples = []
    for _ in range(15):
        start = _time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i
        samples.append(_time.perf_counter() - start)
    cv = _stats.stdev(samples) / _stats.fmean(samples)
    obs.gauge("doctor.noise_cv", round(cv, 4))
    obs.gauge("doctor.noise_cv_threshold", NOISE_CV_THRESHOLD)
    if cv <= NOISE_CV_THRESHOLD:
        print(f"machine noise: cv={cv:.3f} over a fixed workload (ok, "
              f"threshold {NOISE_CV_THRESHOLD})")
    else:
        print(f"machine noise: cv={cv:.3f} over a fixed workload — "
              f"WARNING: above {NOISE_CV_THRESHOLD}; this machine (a "
              f"loaded CI container?) is too noisy for trustworthy "
              f"slope fitting, expect inconclusive verdicts")
    _doctor_caches()


def _doctor_caches() -> None:
    """Cache-health line from :meth:`PlanCache.stats`: the per-symbol
    workspaces."""
    from repro.core.plancache import plan_cache

    st = plan_cache().stats()
    print(f"symbol workspace: {st['symbol_workspace_hits']} hits, "
          f"{st['symbol_workspace_misses']} misses, "
          f"{st['symbol_workspace_variant_hits']} variant hits")


def cmd_doctor(args: argparse.Namespace) -> int:
    """Minimise a query, classify its core, and suggest head extensions
    that make it free-connex (the query_doctor example, as a command);
    without a query, check the measurement environment only."""
    from itertools import combinations

    from repro.core.classify import classify
    from repro.logic.containment import core, is_minimal
    from repro.logic.cq import ConjunctiveQuery
    from repro.logic.parser import parse_query

    if args.query is None:
        _doctor_environment()
        _print_plan_cache_stats()
        return 0
    q = parse_query(args.query)
    if not isinstance(q, ConjunctiveQuery) or q.has_comparisons():
        print(classify(q).render())
        _doctor_environment()
        _print_plan_cache_stats()
        return 0
    minimal = core(q)
    if not is_minimal(q):
        print(f"core: {minimal}  (redundant atoms removed)")
    report = classify(minimal)
    print(report.render())
    if report.fact("acyclic") and report.fact("free_connex") is False:
        candidates = [v for v in minimal.variables()
                      if v not in minimal.free_variables()]
        for r in range(1, len(candidates) + 1):
            found = None
            for extra in combinations(candidates, r):
                widened = minimal.with_head(list(minimal.head) + list(extra))
                if widened.is_acyclic() and widened.is_free_connex():
                    found = extra
                    break
            if found:
                names = ", ".join(v.name for v in found)
                print(f"doctor's note: adding [{names}] to the head makes the "
                      f"query free-connex (constant delay, Theorem 4.6)")
                break
    _print_plan_cache_stats()
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate the paper's three figures as text."""
    from repro.figures import figure1_query, figure2_query, figure3_expected
    from repro.hypergraph.components import max_independent_subset, s_components
    from repro.hypergraph.freeconnex import free_connex_join_tree

    q1 = figure1_query()
    tree, _virtual = free_connex_join_tree(q1)
    print("Figure 1 — free-connex join tree of", q1)
    print(tree)
    print()
    q2 = figure2_query()
    h = q2.hypergraph()
    print("Figure 2 — hypergraph edges:")
    for e in h.edges:
        print("  {" + ", ".join(sorted(v.name for v in e)) + "}")
    print()
    print("Figure 3 — S-components:")
    for i, comp in enumerate(s_components(h, q2.free_variables())):
        sub = comp.subhypergraph(h)
        ind = max_independent_subset(sub, sorted(comp.s_vertices, key=str))
        print(f"  component {i}: S = "
              f"{sorted(v.name for v in comp.s_vertices)}, "
              f"max independent S-set {sorted(v.name for v in ind)}")
    print(f"quantified star size = {q2.quantified_star_size()}")
    return 0


DEFAULT_HISTORY_DIR = "benchmarks/history"


def _print_regressions(regressions, gate: str) -> int:
    """Print the gate standing per case; return the exit code that the
    ``--gate`` policy assigns to it."""
    flagged = [r for r in regressions if r.flagged]
    if gate != "off":
        for reg in regressions:
            print(reg.describe())
    if not flagged:
        return 0
    if gate == "fail":
        print(f"regression gate: {len(flagged)} case(s) above the rolling "
              f"baseline band — failing", file=sys.stderr)
        return 1
    print(f"regression gate: {len(flagged)} case(s) above the rolling "
          f"baseline band (warn-only; use --gate fail to enforce)",
          file=sys.stderr)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the chosen suites, record every case to the history and the
    ``BENCH_<suite>.json`` snapshots, print the verdict table, and gate
    the recorded cases against their rolling baselines."""
    import datetime

    from repro.obs.observatory import Observatory, run_suites, save_records

    _select_engine(args)
    tracer, previous = _obs_setup(args)
    timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        records = run_suites(args.suite, timestamp, quick=args.quick,
                             repeats=args.repeats, seed=args.seed)
    finally:
        _obs_finish(args, tracer, previous)
    save_records(records, args.history_dir, args.snapshot_dir)
    print(f"{'case':>26} {'n range':>16} {'slope [95% CI]':>22} "
          f"{'verdict':>15} {'expected':>15} {'ok':>3}")
    for record in records:
        # fit is None for sub-2-point sweeps (nothing to fit a slope to)
        fit = record["fit"] or {"slope": None, "ci_low": None,
                                "ci_high": None}
        ns = [p["n"] for p in record["points"]]
        if fit["ci_low"] is None:
            ci = f"{fit['slope']:.2f} [n/a]" if fit["slope"] is not None \
                else "n/a"
        else:
            ci = (f"{fit['slope']:.2f} [{fit['ci_low']:.2f}, "
                  f"{fit['ci_high']:.2f}]")
        ok = {True: "yes", False: "NO"}.get(record["verdict_ok"], "-")
        print(f"{record['case']:>26} {min(ns):>7}-{max(ns):>8} {ci:>22} "
              f"{record['verdict']:>15} "
              f"{record['expectation'] or '-':>15} {ok:>3}")
    print(f"recorded {len(records)} cases -> {args.history_dir} and "
          f"BENCH_*.json in {args.snapshot_dir}")
    # gate only what this run measured: a case another writer recorded
    # (or one a suite no longer runs) is `repro report`'s business
    recorded = {(r["suite"], r["case"]) for r in records}
    rc = _print_regressions(
        [reg for reg in Observatory(args.history_dir).regressions()
         if (reg.suite, reg.case) in recorded], args.gate)
    if args.strict and any(r["verdict_ok"] is False for r in records):
        print("verdict check: measured shape contradicts the classifier "
              "for at least one case — failing (--strict)",
              file=sys.stderr)
        return 1
    return rc


def cmd_report(args: argparse.Namespace) -> int:
    """Render the benchmark history as the HTML/SVG dashboard."""
    from repro.obs.report import write_dashboard

    path, regressions = write_dashboard(
        args.output, args.history_dir,
        baseline_n=args.baseline_n, min_band=args.band)
    print(f"wrote {path}")
    return _print_regressions(regressions, args.gate)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree for `python -m repro`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fine-grained complexity analysis of queries "
                    "(Durand, PODS 2020) — executable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="complexity report of a query")
    p.add_argument("query", help='e.g. "Q(x, y) :- R(x, z), S(z, y)"')
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("run", help="evaluate a query over CSV relations")
    p.add_argument("query")
    p.add_argument("--data", required=True, help="directory of <Rel>.csv files")
    p.add_argument("--count", action="store_true", help="print |Q(D)| only")
    p.add_argument("--limit", type=int, default=None,
                   help="stop after N answers")
    _add_pipeline_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("explain",
                       help="trace one evaluation and print the span tree")
    p.add_argument("query")
    p.add_argument("--data", default=None,
                   help="directory of <Rel>.csv files (default: synthetic "
                        "random data matching the query's schema)")
    p.add_argument("--size", type=int, default=1000,
                   help="tuples per relation for synthetic data")
    p.add_argument("--seed", type=int, default=7,
                   help="random seed for synthetic data")
    p.add_argument("--count", action="store_true",
                   help="trace the counting pipeline instead of enumeration")
    p.add_argument("--limit", type=int, default=None,
                   help="stop enumerating after N answers")
    _add_pipeline_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("analyze",
                       help="estimated vs actual: run one query "
                            "instrumented and compare per-operator "
                            "cardinalities and timings against the "
                            "classifier's predicted class")
    p.add_argument("query")
    p.add_argument("--data", default=None,
                   help="directory of <Rel>.csv files (default: synthetic "
                        "random data, run at two sizes so the scaling "
                        "checks have two points)")
    p.add_argument("--size", type=int, default=4000,
                   help="tuples per relation for synthetic data (the "
                        "second run uses 2x this)")
    p.add_argument("--seed", type=int, default=7,
                   help="random seed for synthetic data")
    p.add_argument("--scale", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force/suppress the second 2x-size run (default: "
                        "on for synthetic data, off with --data)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write the analysis dict as JSON")
    p.add_argument("--html", default=None, metavar="FILE",
                   help="also render the estimated-vs-actual panel as a "
                        "self-contained HTML file")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when any operator's actuals "
                        "contradict the predicted class")
    _add_pipeline_flags(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("doctor",
                       help="minimise + classify + suggest fixes; also "
                            "checks the measurement environment (timer "
                            "calibration, machine noise)")
    p.add_argument("query", nargs="?", default=None,
                   help="query to doctor (omit to run only the "
                        "environment checks)")
    p.set_defaults(fn=cmd_doctor)

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    p.set_defaults(fn=cmd_figures)

    from repro.obs.observatory import SUITES

    p = sub.add_parser("bench",
                       help="run the complexity suites, record history, "
                            "print the verdict table")
    p.add_argument("--suite", nargs="+", choices=list(SUITES),
                   default=["bench"], metavar="NAME",
                   help="suites to run, from: " + ", ".join(SUITES)
                        + " (default: bench)")
    p.add_argument("--quick", action="store_true",
                   help="run the smaller sweeps CI uses where a suite has "
                        "one (selfjoin 2k-12k)")
    p.add_argument("--repeats", type=int, default=2,
                   help="repetitions per point (best-of)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--history-dir", default=DEFAULT_HISTORY_DIR,
                   help="JSONL history directory (one file per suite)")
    p.add_argument("--snapshot-dir", default=".",
                   help="directory of the BENCH_<suite>.json snapshots, "
                        "updated with the latest record per case")
    p.add_argument("--gate", choices=("off", "warn", "fail"),
                   default="warn",
                   help="regression gate of the cases just run against "
                        "their rolling baselines: warn (default) prints "
                        "flags, fail exits nonzero")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when a measured verdict "
                        "contradicts the classifier's expectation")
    _add_pipeline_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("report",
                       help="render the benchmark history as an "
                            "HTML/SVG dashboard")
    p.add_argument("-o", "--output", default="report.html")
    p.add_argument("--history-dir", default=DEFAULT_HISTORY_DIR)
    p.add_argument("--baseline-n", type=int, default=5,
                   help="rolling-baseline window (median of last N)")
    p.add_argument("--band", type=float, default=0.30,
                   help="minimum regression noise band (fraction)")
    p.add_argument("--gate", choices=("off", "warn", "fail"),
                   default="warn",
                   help="exit policy when a case regressed")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
