"""Structured tracing core: nested spans, counters and gauges.

A :class:`Tracer` records *spans* (named, attributed wall-clock
intervals, nested by dynamic scope), *counters* (monotonically
accumulated event tallies — kernel invocations, rows probed, blocks
emitted, cache hits) and *gauges* (last-written values — dictionary
sizes, the calibrated timer overhead).  Spans are timed with
:func:`time.perf_counter_ns`, the same clock — and therefore the same
measured floor, see :func:`repro.perf.delay.timer_overhead_ns` — as the
delay-measurement harness, so a trace and a delay profile of the same
run are directly comparable.

The disabled state is a :class:`NullTracer` singleton whose ``span`` /
``count`` / ``gauge`` are allocation-free no-ops: one attribute check
and at most one trivial call per instrumentation site, cheap enough to
leave the instrumentation on permanently in library code (the bound is
benchmarked in ``benchmarks/test_bench_obs_overhead.py``).

Span begin/end tolerates out-of-order ends: interleaved generators (the
UCQ round-robin) may close their enumeration spans in any order, so
ending a span removes it from the ambient stack wherever it sits
instead of assuming strict LIFO.  Nesting is decided at *begin* time
(the parent is whatever tops the current thread's stack), which is
exactly the dynamic-scope semantics the explain tree renders.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: head-sampling knob: fraction of new trace contexts that are sampled
#: (stamped onto spans, exported as exemplars).  Applied once at context
#: creation — a request is either fully traced or fully unsampled, so a
#: sampled trace is never missing interior spans.
SAMPLE_ENV_VAR = "REPRO_TRACE_SAMPLE"


def sample_rate() -> float:
    """The configured head-sampling rate, clamped into ``[0, 1]``.

    Unset or unparsable values mean 1.0 (sample everything): tracing is
    opt-in to begin with, so the knob only ever *reduces* volume."""
    raw = os.environ.get(SAMPLE_ENV_VAR)
    if not raw:
        return 1.0
    try:
        rate = float(raw)
    except ValueError:
        return 1.0
    return min(1.0, max(0.0, rate))


class TraceContext:
    """Identity of one request's trace: W3C-style ids, explicit sampling.

    ``trace_id`` names the whole request tree; ``span_id``, when a
    caller hands in a context that has one, is the parent the trace's
    root spans name.  ``sampled`` is the head-sampling decision, made
    once in :meth:`new` and never re-rolled, so a request's spans are
    all-or-nothing."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: Optional[str] = None,
                 sampled: bool = True):
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    @classmethod
    def new(cls) -> "TraceContext":
        """A fresh root context with the head-sampling decision rolled."""
        trace_id = f"{random.getrandbits(64):016x}"
        rate = sample_rate()
        sampled = rate >= 1.0 or random.random() < rate
        return cls(trace_id, sampled=sampled)

    def __repr__(self) -> str:
        return (f"TraceContext({self.trace_id}, span={self.span_id}, "
                f"sampled={self.sampled})")


# Ambient (thread-local) context: lets code far from the tracer — the
# registry recording a delay exemplar, the watchdog naming a violation —
# find the current request's trace_id without threading it through every
# call signature.
_AMBIENT = threading.local()


def current_context() -> Optional[TraceContext]:
    """The thread's active trace context, or ``None`` outside a request."""
    return getattr(_AMBIENT, "ctx", None)


def current_trace_id() -> Optional[str]:
    """The active *sampled* trace id — ``None`` when there is no context
    or head sampling dropped it (unsampled requests must not leak ids
    into exemplars that cannot resolve to a retained trace)."""
    ctx = getattr(_AMBIENT, "ctx", None)
    if ctx is None or not ctx.sampled:
        return None
    return ctx.trace_id


def activate_context(ctx: Optional[TraceContext]) -> Optional[TraceContext]:
    """Install ``ctx`` as the thread's ambient context; returns the
    previous one so callers can restore it."""
    prev = getattr(_AMBIENT, "ctx", None)
    _AMBIENT.ctx = ctx
    return prev


@contextmanager
def scoped_context(ctx: Optional[TraceContext]) -> Iterator[
        Optional[TraceContext]]:
    """Activate ``ctx`` for the duration of the block, then restore."""
    prev = activate_context(ctx)
    try:
        yield ctx
    finally:
        activate_context(prev)


class Span:
    """One timed region: name, ``perf_counter_ns`` bounds, attributes,
    children (spans begun while this one topped the stack)."""

    __slots__ = ("name", "start_ns", "end_ns", "attrs", "children", "tid",
                 "trace_id", "span_id", "parent_id")

    def __init__(self, name: str, start_ns: int, tid: int):
        self.name = name
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self.tid = tid
        # request identity, stamped by the tracer when its context is
        # sampled; None on unsampled / context-free spans
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None

    @property
    def duration_ns(self) -> int:
        """Elapsed nanoseconds (0 while the span is still open)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute (cardinalities, level numbers, ...)."""
        self.attrs[key] = value

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration_ns / 1e6:.3f}ms, "
                f"attrs={self.attrs})")


class _SpanContext:
    """The context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._begin(self._name, self._attrs)
        return self._span

    def __exit__(self, *exc: Any) -> bool:
        self._tracer._end(self._span)
        return False


class Tracer:
    """A live trace: span tree + counters + gauges.

    Thread-safe: each thread keeps its own span stack (nesting is per
    thread, like Chrome's per-``tid`` tracks), while the finished-span
    list, counters and gauges share one lock.  ``events`` tallies every
    recorded instrumentation event (span begins, counter and gauge
    writes) — the overhead benchmark multiplies it by the measured
    null-call cost to bound the disabled path's tax.
    """

    enabled = True

    #: sentinel distinguishing "no context argument" (mint a fresh one)
    #: from an explicit ``context=None`` (trace without request identity)
    _NEW = object()

    def __init__(self, context: Any = _NEW) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.epoch_ns = time.perf_counter_ns()
        self.roots: List[Span] = []
        self.spans: List[Span] = []  # every span, in begin order
        self.counters: Dict[str, Any] = {}
        self.gauges: Dict[str, Any] = {}
        self.events = 0
        if context is Tracer._NEW:
            context = TraceContext.new()
        self.context: Optional[TraceContext] = context
        # cheap span ids: a counter, behind a pid prefix that keeps them
        # apart from ids minted by the process a caller's context came from
        self._id_prefix = f"{os.getpid() & 0xffffff:x}"
        self._id_seq = itertools.count(1)

    # ------------------------------------------------------------------ spans

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """A context manager timing one named region::

            with tracer.span("yannakakis.semijoin", node=3) as sp:
                ...
                sp.set("out", len(result))
        """
        return _SpanContext(self, name, attrs)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str, attrs: Dict[str, Any]) -> Span:
        span = Span(name, time.perf_counter_ns(), threading.get_ident())
        if attrs:
            span.attrs.update(attrs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        ctx = self.context
        if ctx is not None and ctx.sampled:
            span.trace_id = ctx.trace_id
            span.span_id = f"{self._id_prefix}-{next(self._id_seq):x}"
            # a root span's parent is the context's own span, if any
            span.parent_id = (parent.span_id if parent is not None
                              else ctx.span_id)
        with self._lock:
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
            self.spans.append(span)
            self.events += 1
        stack.append(span)
        return span

    def _end(self, span: Optional[Span]) -> None:
        if span is None:  # pragma: no cover - __exit__ without __enter__
            return
        span.end_ns = time.perf_counter_ns()
        stack = self._stack()
        # tolerate out-of-order ends from interleaved generators: remove
        # the span wherever it sits instead of requiring LIFO order
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is span:
                del stack[i]
                break

    # -------------------------------------------------------- counters/gauges

    def count(self, name: str, n: Any = 1) -> None:
        """Accumulate ``n`` onto the named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n
            self.events += 1

    def count_many(self, deltas: Dict[str, Any]) -> None:
        """Accumulate several counters in one instrumentation event."""
        with self._lock:
            counters = self.counters
            for name, n in deltas.items():
                counters[name] = counters.get(name, 0) + n
            self.events += 1

    def gauge(self, name: str, value: Any) -> None:
        """Record the latest value of the named gauge."""
        with self._lock:
            self.gauges[name] = value
            self.events += 1

    # ------------------------------------------------------------------ misc

    def elapsed_ns(self) -> int:
        return time.perf_counter_ns() - self.epoch_ns


class _NullSpan:
    """The span handed out while tracing is disabled: ignores writes."""

    __slots__ = ()
    name = ""
    attrs: Dict[str, Any] = {}
    children: List[Span] = []
    start_ns = end_ns = 0
    duration_ns = 0
    tid = 0
    trace_id = span_id = parent_id = None

    def set(self, key: str, value: Any) -> None:
        pass


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: Any) -> bool:
        return False


class NullTracer:
    """The disabled tracer: every operation is a stateless no-op.

    A single shared instance backs the whole process when tracing is
    off; ``span`` returns one shared, re-entrant context manager, so the
    disabled path allocates nothing.
    """

    enabled = False

    def __init__(self) -> None:
        # empty read-only views so metrics/export code needs no special case
        self.roots: List[Span] = []
        self.spans: List[Span] = []
        self.counters: Dict[str, Any] = {}
        self.gauges: Dict[str, Any] = {}
        self.events = 0
        self.epoch_ns = 0
        self.context: Optional[TraceContext] = None

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:
        return NULL_SPAN_CONTEXT

    def count(self, name: str, n: Any = 1) -> None:
        pass

    def gauge(self, name: str, value: Any) -> None:
        pass

    def elapsed_ns(self) -> int:
        return 0


NULL_SPAN = _NullSpan()
NULL_SPAN_CONTEXT = _NullSpanContext()
NULL_TRACER = NullTracer()
