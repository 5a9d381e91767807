"""Always-available tracing/metrics for the query-evaluation pipeline.

The paper's claims are complexity *shapes* — linear preprocessing,
constant delay, ``||D||^s`` counting — and the pipeline that realises
them (planner, plan cache, Yannakakis passes, columnar kernels, block
enumeration) is instrumented with this module so those shapes can be
read directly off a trace: where preprocessing time goes, which kernels
fire how often, whether a warm run hit the plan cache.

Usage::

    from repro import obs

    with obs.capture() as tr:          # enable a fresh tracer in scope
        list(enumerate_answers(q, db))
    print(obs.render_explain(tr))      # per-phase span tree
    obs.write_chrome_trace("out.json", tr)   # chrome://tracing / Perfetto
    obs.metrics(tr)                    # flat JSON-able counters/gauges

Library code calls the module-level :func:`span`, :func:`count`,
:func:`gauge` and :func:`delay`, which route to the active tracer, the
one sink.  By default that is the :data:`~repro.obs.trace.NULL_TRACER`
no-op singleton — one attribute check per instrumentation site,
benchmarked under 2% on the 100k-tuple enumeration benchmark
(``benchmarks/test_bench_obs_overhead.py``) — so instrumentation stays
on permanently.

Activation: :func:`enable` / :func:`capture`, or the CLI flags
(``--trace FILE``, ``--metrics``, ``repro explain``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Union

from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    metrics_dump,
    render_explain,
    write_chrome_trace as _write_chrome_trace,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)

_TRACER: Union[Tracer, NullTracer] = NULL_TRACER


def tracer() -> Union[Tracer, NullTracer]:
    """The currently active tracer (the null singleton when disabled)."""
    return _TRACER


def enabled() -> bool:
    """Is tracing currently recording?"""
    return _TRACER.enabled


def span(name: str, **attrs: Any):
    """Context manager timing one named region: a recorded span (tree
    position, attributes) on the active tracer, the shared no-op null
    context when tracing is off."""
    return _TRACER.span(name, **attrs)


def count(name: str, n: Any = 1) -> None:
    """Accumulate onto a named counter of the active tracer."""
    t = _TRACER
    if t.enabled:
        t.count(name, n)


def gauge(name: str, value: Any) -> None:
    """Record a named gauge value on the active tracer."""
    t = _TRACER
    if t.enabled:
        t.gauge(name, value)


def delay(gap_ns: int, answers: int = 1) -> None:
    """Record one block of ``answers`` answers produced in ``gap_ns``.

    One call per block does all of the block's bookkeeping on the
    active tracer (:meth:`~repro.obs.trace.Tracer.delay`): the
    ``enum.blocks`` and ``enum.answers`` counters grow, and the
    ``(gap_ns, answers)`` pair joins the tracer's ``delays`` list, from
    which ``repro analyze`` takes exact per-answer percentiles."""
    t = _TRACER
    if t.enabled:
        t.delay(gap_ns, answers)


def enable(t: Optional[Tracer] = None) -> Tracer:
    """Install ``t`` (or a fresh :class:`Tracer`) as the active tracer."""
    global _TRACER
    _TRACER = t if t is not None else Tracer()
    return _TRACER


def disable() -> Union[Tracer, NullTracer]:
    """Stop recording; returns the tracer that was active."""
    global _TRACER
    previous = _TRACER
    _TRACER = NULL_TRACER
    return previous


@contextmanager
def capture(t: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Enable a tracer for the scope, restoring the previous one after::

        with obs.capture() as tr:
            run_workload()
        print(obs.render_explain(tr))
    """
    global _TRACER
    previous = _TRACER
    _TRACER = t if t is not None else Tracer()
    try:
        yield _TRACER
    finally:
        _TRACER = previous


def metrics(t: Optional[Union[Tracer, NullTracer]] = None) -> Dict[str, Any]:
    """Flat metrics dump of ``t`` (default: the active tracer); always
    includes plan-cache stats and the calibrated timer overhead."""
    return metrics_dump(t if t is not None else _TRACER)


def write_chrome_trace(path: str,
                       t: Optional[Union[Tracer, NullTracer]] = None) -> str:
    """Write the Chrome trace-event JSON of ``t`` (default active)."""
    return _write_chrome_trace(path, t if t is not None else _TRACER)


__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "capture",
    "chrome_trace",
    "chrome_trace_events",
    "count",
    "delay",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "metrics",
    "metrics_dump",
    "render_explain",
    "span",
    "tracer",
    "write_chrome_trace",
]
