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

Library code calls the module-level :func:`span`, :func:`count` and
:func:`gauge`, which route to the process-wide tracer.  By default that
is the :data:`~repro.obs.trace.NULL_TRACER` no-op singleton — one
attribute check per instrumentation site, benchmarked under 5% on the
100k-tuple enumeration benchmark (``benchmarks/test_bench_obs_overhead
.py``) — so instrumentation stays on permanently.

Activation: :func:`enable` / :func:`capture` / the CLI flags
(``--trace FILE``, ``--metrics``, ``repro explain``), or the
``REPRO_TRACE`` environment variable — ``1``/``true`` enables tracing
for the process, any other non-empty value is treated as a path and the
Chrome trace (plus a ``<path>.metrics.json`` dump) is written there at
interpreter exit.

Independently of the scoped tracer, every :func:`count`/:func:`gauge`
call and every :func:`span` duration also feeds the process-wide
always-on :mod:`~repro.obs.registry` (counters, gauges, log-bucketed
quantile sketches), which is what ``repro metrics-serve`` / ``repro
top`` expose and the :mod:`~repro.obs.watchdog` monitors.  Disable it
with ``REPRO_METRICS=0``; enable the delay-guarantee watchdog at
import with ``REPRO_WATCHDOG=1``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Union

from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    metrics_dump,
    render_explain,
    write_chrome_trace as _write_chrome_trace,
)
from repro.obs.registry import (
    MetricsRegistry,
    registry,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    SAMPLE_ENV_VAR,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    activate_context,
    current_context,
    current_trace_id,
    sample_rate,
    scoped_context,
)

ENV_VAR = "REPRO_TRACE"
WATCHDOG_ENV_VAR = "REPRO_WATCHDOG"

_TRACER: Union[Tracer, NullTracer] = NULL_TRACER
_REGISTRY: MetricsRegistry = registry()


def tracer() -> Union[Tracer, NullTracer]:
    """The currently active tracer (the null singleton when disabled)."""
    return _TRACER


def enabled() -> bool:
    """Is tracing currently recording?"""
    return _TRACER.enabled


def span(name: str, **attrs: Any):
    """Context manager timing one named region.

    With a tracer active it records a full span (tree position,
    attributes); otherwise, with the always-on registry enabled, the
    duration still lands in the registry's ``phase.<name>`` latency
    sketch; with both off it is the usual no-op null context."""
    t = _TRACER
    if t.enabled:
        return t.span(name, **attrs)
    r = _REGISTRY
    if r.enabled:
        return r.timed(name)
    return t.span(name, **attrs)


def count(name: str, n: Any = 1) -> None:
    """Accumulate onto a named counter: the scoped tracer when one is
    active, and always the process-wide registry."""
    t = _TRACER
    if t.enabled:
        t.count(name, n)
    _REGISTRY.count(name, n)


def gauge(name: str, value: Any) -> None:
    """Record a named gauge value (tracer when active + registry)."""
    t = _TRACER
    if t.enabled:
        t.gauge(name, value)
    _REGISTRY.gauge(name, value)


def delay(gap_ns: int, answers: int = 1) -> None:
    """Record one block of ``answers`` answers produced in ``gap_ns``.

    One call per block does all of the block's bookkeeping: the
    registry's ``enum.delay_ns`` sketch gets the gap (amortised: the
    per-answer share with weight = answers), the ``enum.blocks`` and
    ``enum.answers`` counters grow — on the scoped tracer too when one
    is active — and any delay listeners (the guarantee watchdog) are
    notified."""
    t = _TRACER
    if t.enabled:
        t.count_many({"enum.blocks": 1, "enum.answers": answers})
    _REGISTRY.record_delay(gap_ns, answers)


def event(name: str, **fields: Any) -> Dict[str, Any]:
    """Emit a discrete structured event (NDJSON log + in-memory ring +
    an ``event.<name>`` registry counter)."""
    from repro.obs.expose import emit_event

    return emit_event(name, **fields)


def enable(t: Optional[Tracer] = None) -> Tracer:
    """Install ``t`` (or a fresh :class:`Tracer`) as the active tracer
    and activate its trace context on the calling thread."""
    global _TRACER
    _TRACER = t if t is not None else Tracer()
    activate_context(_TRACER.context)
    return _TRACER


def disable() -> Union[Tracer, NullTracer]:
    """Stop recording; returns the tracer that was active."""
    global _TRACER
    previous = _TRACER
    _TRACER = NULL_TRACER
    activate_context(None)
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
    prev_ctx = activate_context(_TRACER.context)
    try:
        yield _TRACER
    finally:
        _TRACER = previous
        activate_context(prev_ctx)


def metrics(t: Optional[Union[Tracer, NullTracer]] = None) -> Dict[str, Any]:
    """Flat metrics dump of ``t`` (default: the active tracer); always
    includes plan-cache stats and the calibrated timer overhead."""
    return metrics_dump(t if t is not None else _TRACER)


def write_chrome_trace(path: str,
                       t: Optional[Union[Tracer, NullTracer]] = None) -> str:
    """Write the Chrome trace-event JSON of ``t`` (default active)."""
    return _write_chrome_trace(path, t if t is not None else _TRACER)


def _atexit_dump(path: str) -> str:
    """The ``REPRO_TRACE=<path>`` exit hook: Chrome trace at ``path``
    plus a ``<path>.metrics.json`` metrics dump (counters/gauges/
    plan-cache/registry) so the flat numbers are not lost unless
    ``--metrics`` was passed explicitly."""
    import json

    _write_chrome_trace(path, _TRACER)
    metrics_path = path + ".metrics.json"
    with open(metrics_path, "w") as fh:
        json.dump(metrics_dump(_TRACER), fh, indent=2, default=str)
    return metrics_path


def _init_from_environment() -> None:
    """Honour ``REPRO_TRACE`` at import: enable tracing, and when the
    value names a file, dump the Chrome trace + metrics there at
    process exit.  ``REPRO_WATCHDOG`` installs the delay-guarantee
    watchdog process-wide."""
    value = os.environ.get(ENV_VAR, "").strip()
    if value and value.lower() not in ("0", "false", "off", "no"):
        enable()
        if value.lower() not in ("1", "true", "yes", "on"):
            import atexit

            atexit.register(lambda: _atexit_dump(value))
    wd = os.environ.get(WATCHDOG_ENV_VAR, "").strip()
    if wd and wd.lower() not in ("0", "false", "off", "no"):
        from repro.obs.watchdog import install as _install_watchdog

        watchdog = _install_watchdog()
        if wd.lower() not in ("1", "true", "yes", "on"):
            # a path value also turns on tail-based trace retention,
            # writing breaching requests' traces under that directory
            watchdog.tail_tracing = True
            watchdog.tail_dir = wd


_init_from_environment()

__all__ = [
    "ENV_VAR",
    "SAMPLE_ENV_VAR",
    "WATCHDOG_ENV_VAR",
    "NULL_SPAN",
    "NULL_TRACER",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "TraceContext",
    "Tracer",
    "activate_context",
    "capture",
    "chrome_trace",
    "chrome_trace_events",
    "count",
    "current_context",
    "current_trace_id",
    "delay",
    "disable",
    "enable",
    "enabled",
    "event",
    "gauge",
    "metrics",
    "metrics_dump",
    "registry",
    "render_explain",
    "sample_rate",
    "scoped_context",
    "span",
    "tracer",
    "write_chrome_trace",
]
