"""Observability overhead guard: the disabled tracer.

The instrumentation in the pipeline is compiled in permanently; with the
null tracer installed each site costs one attribute check (plus a no-op
context manager on span sites).  The acceptance bar: tracing off stays
under 2% of the 100k-tuple enumeration benchmark's wall time.

The untraced baseline cannot be re-measured at runtime (the calls are in
the code), so the guard is computed from measurables:

* ``wall`` — enumeration wall time with the tracer disabled;
* ``events`` — how many instrumentation events the same run fires,
  counted by an enabled tracer on an identical workload (``Tracer.events``
  counts each span begin, counter, gauge and delay write once);
* ``null_cost`` — the measured per-call cost of a disabled
  ``obs.span``/``obs.count``, microbenchmarked directly.

``events * null_cost`` bounds the disabled-path spend inside ``wall``;
the amortised block recording (one ``obs.delay`` per kernel block, not
per answer) is what keeps the event count small.  Results are recorded
as canonical observatory cases (suite ``obs``) via
:func:`_util.record_case`, landing in ``benchmarks/history/obs.jsonl``
and ``BENCH_obs.json``.
"""

import time

from _util import format_rows, record, record_case

from repro import obs
from repro.core.plancache import clear_plan_cache
from repro.data import generators
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.logic.parser import parse_cq

FULL_QUERY = "Q(x, z, y) :- R(x, z), S(z, y)"
N_BIG = 100_000
MAX_OVERHEAD = 0.02


def make_db(n, seed=7):
    return generators.random_database({"R": 2, "S": 2}, max(4, n // 4), n,
                                      seed=seed)


def _timed_enumeration(q, db):
    """(wall seconds, answers) for one full cold evaluation."""
    clear_plan_cache()
    enum = FreeConnexEnumerator(q, db, engine="columnar")
    start = time.perf_counter()
    n = sum(1 for _ in enum)
    return time.perf_counter() - start, n


def _null_call_cost():
    """Per-call seconds of a disabled instrumentation site (span + count,
    averaged), measured on the null tracer."""
    assert not obs.enabled()
    reps = 200_000
    start = time.perf_counter()
    for _ in range(reps):
        with obs.span("x"):
            pass
    span_cost = (time.perf_counter() - start) / reps
    start = time.perf_counter()
    for _ in range(reps):
        obs.count("x")
    count_cost = (time.perf_counter() - start) / reps
    return max(span_cost, count_cost)


def test_disabled_tracer_overhead_under_2pct(benchmark):
    """events x null-call-cost < 2% of the 100k enumeration wall time."""
    q = parse_cq(FULL_QUERY)
    db = make_db(N_BIG)
    obs.disable()

    # disabled-path wall time (best of 3 cold runs)
    wall, answers = min(_timed_enumeration(q, db) for _ in range(3))

    # the same workload's event count, from an enabled tracer
    clear_plan_cache()
    with obs.capture() as t:
        traced_start = time.perf_counter()
        traced_answers = sum(
            1 for _ in FreeConnexEnumerator(q, db, engine="columnar"))
        traced_wall = time.perf_counter() - traced_start
        events = t.events
    assert traced_answers == answers

    null_cost = _null_call_cost()
    overhead = events * null_cost
    fraction = overhead / max(wall, 1e-9)

    rows = [
        ("disabled wall s", f"{wall:.4f}"),
        ("traced wall s", f"{traced_wall:.4f}"),
        ("answers", answers),
        ("instrumentation events", events),
        ("null call cost ns", f"{null_cost * 1e9:.1f}"),
        ("bounded overhead s", f"{overhead:.6f}"),
        ("overhead fraction", f"{fraction:.4%}"),
    ]
    record("obs_overhead",
           "Disabled-tracer overhead bound on the 100k enumeration "
           "workload\n" + format_rows(["quantity", "value"], rows))
    record_case("obs", "overhead/disabled", "overhead_fraction",
                [{"n": N_BIG, "value": fraction, "wall_seconds": wall,
                  "answers": answers, "events": events,
                  "null_call_cost_ns": null_cost * 1e9}])
    record_case("obs", "overhead/enabled", "wall_seconds",
                [{"n": N_BIG, "value": traced_wall,
                  "answers": traced_answers, "spans": len(t.spans)}])
    assert fraction < MAX_OVERHEAD, rows
    benchmark(_null_call_cost)
