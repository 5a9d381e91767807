"""Structured tracing core: nested spans, counters, gauges and delays.

A :class:`Tracer` records *spans* (named, attributed wall-clock
intervals, nested by dynamic scope), *counters* (monotonically
accumulated event tallies — kernel invocations, rows probed, blocks
emitted, cache hits), *gauges* (last-written values — dictionary
sizes, the calibrated timer overhead) and *delays* (one
``(gap_ns, answers)`` pair per enumerated block).  Spans are timed with
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

import threading
import time
from typing import Any, Dict, List, Optional, Tuple


class Span:
    """One timed region: name, ``perf_counter_ns`` bounds, attributes,
    children (spans begun while this one topped the stack)."""

    __slots__ = ("name", "start_ns", "end_ns", "attrs", "children", "tid")

    def __init__(self, name: str, start_ns: int, tid: int):
        self.name = name
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self.tid = tid

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
    """A live trace: span tree + counters + gauges + block delays.

    Thread-safe: each thread keeps its own span stack (nesting is per
    thread, like Chrome's per-``tid`` tracks), while the finished-span
    list, counters, gauges and delays share one lock.  ``events``
    tallies every recorded instrumentation event (span begins, counter,
    gauge and delay writes) — the overhead benchmark multiplies it by
    the measured null-call cost to bound the disabled path's tax.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.epoch_ns = time.perf_counter_ns()
        self.roots: List[Span] = []
        self.spans: List[Span] = []  # every span, in begin order
        self.counters: Dict[str, Any] = {}
        self.gauges: Dict[str, Any] = {}
        #: one ``(gap_ns, answers)`` pair per enumerated block
        self.delays: List[Tuple[int, int]] = []
        self.events = 0

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

    # ------------------------------------------------- counters/gauges/delays

    def count(self, name: str, n: Any = 1) -> None:
        """Accumulate ``n`` onto the named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n
            self.events += 1

    def delay(self, gap_ns: int, answers: int) -> None:
        """Record one block of ``answers`` answers produced in
        ``gap_ns``: the ``enum.blocks`` and ``enum.answers`` counters
        grow and the pair joins :attr:`delays`, in one event."""
        with self._lock:
            counters = self.counters
            counters["enum.blocks"] = counters.get("enum.blocks", 0) + 1
            counters["enum.answers"] = (counters.get("enum.answers", 0)
                                        + answers)
            self.delays.append((gap_ns, answers))
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
