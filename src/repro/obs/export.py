"""Trace exporters: Chrome trace-event JSON, explain trees, metrics.

Three renderings of one :class:`~repro.obs.trace.Tracer`:

* :func:`chrome_trace` — the Chrome/Perfetto trace-event format
  (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
  each span becomes one complete (``"ph": "X"``) event with
  microsecond ``ts``/``dur`` relative to the tracer's epoch, each
  counter one ``"ph": "C"`` event — open the file in ``chrome://tracing``
  or https://ui.perfetto.dev;
* :func:`render_explain` — a human-readable span tree with per-phase
  wall times and inline attributes, plus the counter/gauge tables
  (the ``repro explain`` output);
* :func:`metrics_dump` — a flat JSON-serialisable dict of counters,
  gauges, plan-cache statistics and the calibrated timer overhead, the
  machine-readable side channel for CI diffs.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.obs.trace import Span, Tracer


def _jsonable(value: Any) -> Any:
    """Coerce an attribute value into something JSON can carry."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """The trace-event list: one ``X`` event per span, one ``C`` event
    per counter (timestamped at the trace end).

    Events are emitted in ``start_ns`` order, the monotonic-``ts``
    property trace viewers (and the trace lint) expect.  Sampled spans
    carry their ``trace_id``/``span_id``/``parent_id`` in ``args``, so
    one request's events are joinable."""
    epoch = tracer.epoch_ns
    pid = os.getpid()
    events: List[Dict[str, Any]] = []
    last_end = epoch
    for span in sorted(tracer.spans, key=lambda s: s.start_ns):
        end_ns = span.end_ns if span.end_ns is not None else span.start_ns
        last_end = max(last_end, end_ns)
        args = {k: _jsonable(v) for k, v in span.attrs.items()}
        if span.trace_id is not None:
            args["trace_id"] = span.trace_id
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "ph": "X",
            "cat": "repro",
            "ts": (span.start_ns - epoch) / 1e3,  # microseconds
            "dur": (end_ns - span.start_ns) / 1e3,
            "pid": pid,
            "tid": span.tid,
            "args": args,
        })
    ts_end = (last_end - epoch) / 1e3
    for name in sorted(tracer.counters):
        events.append({
            "name": name,
            "ph": "C",
            "cat": "repro",
            "ts": ts_end,
            "pid": pid,
            "tid": 0,
            "args": {"value": _jsonable(tracer.counters[name])},
        })
    return events


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The full trace document (object form, with metadata)."""
    other: Dict[str, Any] = {
        "tool": "repro.obs",
        "gauges": {k: _jsonable(v) for k, v in tracer.gauges.items()},
    }
    context = getattr(tracer, "context", None)
    if context is not None and context.sampled:
        other["trace_id"] = context.trace_id
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(path: str, tracer: Tracer) -> str:
    """Serialise :func:`chrome_trace` to ``path``; returns ``path``."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer), fh, indent=1)
        fh.write("\n")
    return path


# ------------------------------------------------------------------- explain


def _format_ms(ns: int) -> str:
    return f"{ns / 1e6:10.3f} ms"


def _format_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{k}={_jsonable(v)}" for k, v in attrs.items())
    return f"  ({inner})"


def _render_span(span: Span, prefix: str, is_last: bool,
                 lines: List[str]) -> None:
    branch = "└─ " if is_last else "├─ "
    label = f"{prefix}{branch}{span.name}"
    pad = max(1, 58 - len(label))
    lines.append(f"{label}{' ' * pad}{_format_ms(span.duration_ns)}"
                 f"{_format_attrs(span.attrs)}")
    child_prefix = prefix + ("   " if is_last else "│  ")
    for i, child in enumerate(span.children):
        _render_span(child, child_prefix, i == len(span.children) - 1, lines)


def render_explain(tracer: Tracer,
                   metrics: Optional[Dict[str, Any]] = None) -> str:
    """The annotated span tree plus counter/gauge/plan-cache tables.

    ``metrics`` defaults to :func:`metrics_dump` of the same tracer; the
    paper mapping of the phases (preprocessing vs enumeration delay,
    Section 2.3.3) is documented in DESIGN.md's observability note.
    """
    if metrics is None:
        metrics = metrics_dump(tracer)
    lines: List[str] = ["span tree (wall clock)"]
    if not tracer.roots:
        lines.append("  (no spans recorded — was tracing enabled?)")
    for i, root in enumerate(tracer.roots):
        _render_span(root, "", i == len(tracer.roots) - 1, lines)
    counters = metrics.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters")
        width = max(len(k) for k in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]}")
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges")
        width = max(len(k) for k in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}}  {gauges[name]}")
    cache = metrics.get("plan_cache")
    if cache is not None:
        lines.append("")
        lines.append(
            f"plan cache: {cache['hits']} hits, {cache['misses']} misses, "
            f"{cache['evictions']} evictions "
            f"({cache['entries']} entries, maxsize {cache['maxsize']})")
    return "\n".join(lines)


# ------------------------------------------------------------------- metrics


def metrics_dump(tracer: Tracer) -> Dict[str, Any]:
    """Flat, JSON-serialisable metrics snapshot.

    Always includes the process-wide plan-cache statistics
    (:meth:`repro.core.plancache.PlanCache.stats`) and the calibrated
    clock overhead (:func:`repro.perf.delay.timer_overhead_ns`) as a
    gauge, so every dump records its own measurement floor — even when
    the tracer itself is the disabled singleton.
    """
    from repro.core.plancache import plan_cache
    from repro.perf.delay import timer_overhead_ns

    gauges = {k: _jsonable(v) for k, v in tracer.gauges.items()}
    gauges["timer_overhead_ns"] = timer_overhead_ns()
    return {
        "counters": {k: _jsonable(tracer.counters[k])
                     for k in sorted(tracer.counters)},
        "gauges": gauges,
        "plan_cache": plan_cache().stats(),
    }
