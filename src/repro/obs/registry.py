"""Process-wide, always-on metrics registry.

The scoped ``Tracer`` (PR 3) answers "what happened inside this one
request" — it is explicitly enabled, captures every span, and is torn
down with the request.  The serving tier needs the opposite: a metric
store that is *always* on, cheap enough that nobody ever turns it off,
and covers the whole process lifetime.  That is this registry:

* **counters** — monotone event totals (``plancache.hits``,
  ``enum.answers``, ...),
* **gauges** — last-write-wins observations (dictionary sizes, timer
  overhead),
* **sketches** — log-bucketed quantile sketches
  (:mod:`repro.obs.sketch`) for per-enumerator delay and per-phase
  latency distributions (p50/p95/p99/p99.9 online, constant memory).

Everything lives in one flat dotted namespace, fed through the
existing ``obs.count``/``obs.gauge``/``obs.span`` call sites — library
code does not know the registry exists.

Gating: ``REPRO_METRICS=0`` (or ``off``/``false``/``no``) disables
collection process-wide; anything else — including unset — leaves it
on.  Always-on is the point: the <2% overhead guard in
``benchmarks/test_bench_obs_overhead.py`` keeps that honest.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .sketch import QuantileSketch
from .trace import current_trace_id

_FALSY = {"0", "off", "false", "no"}


def _env_enabled() -> bool:
    return os.environ.get("REPRO_METRICS", "").strip().lower() not in _FALSY


class _Timed:
    """Context manager recording a wall-clock duration into a phase
    sketch.  Supports ``.set()`` so it can stand in for a tracer span
    at ``obs.span`` call sites without the caller caring which it got."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0

    def __enter__(self) -> "_Timed":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._registry.observe(
            "phase." + self._name, time.perf_counter_ns() - self._start)

    def set(self, key: str, value: Any = None) -> None:
        """Attribute sink: phase sketches keep durations only (same
        signature as :meth:`repro.obs.trace.Span.set`)."""


class MetricsRegistry:
    """Thread-safe store of counters, gauges, and quantile sketches.

    One lock guards all three maps.  The hot operations (``count``,
    ``observe``) hold it for a dict update and a sketch ``add`` — a few
    hundred ns — which the overhead bench bounds at <2% of the 100k
    enumeration run.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, Any] = {}
        self._sketches: Dict[str, QuantileSketch] = {}
        self._delay_listeners: List[Callable[[int, int], None]] = []
        self.enabled = _env_enabled()

    # ------------------------------------------------------------- writing

    def count(self, name: str, n: int = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: Any) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: int, weight: int = 1,
                trace_id: Optional[str] = None) -> None:
        """Add an observation to the named sketch (created on first use).

        With a ``trace_id`` the observation doubles as the sketch
        bucket's exemplar (see :mod:`repro.obs.sketch`)."""
        if not self.enabled:
            return
        with self._lock:
            sketch = self._sketches.get(name)
            if sketch is None:
                sketch = self._sketches[name] = QuantileSketch()
            sketch.add(value, weight, trace_id=trace_id)

    def record_delay(self, gap_ns: int, answers: int = 1) -> None:
        """Record an enumeration gap covering ``answers`` answers.

        Block-batched producers call this once per block: the
        ``enum.delay_ns`` sketch gets the amortised per-answer delay
        with weight=answers, so quantiles are still per-answer while the
        hot loop pays one clock read per block, and the ``enum.blocks``
        and ``enum.answers`` counters grow under the same lock.  When
        the calling thread carries a sampled trace context, its trace_id
        rides along as the bucket exemplar — the tail-to-trace link.
        Installed delay listeners (the guarantee watchdog) see the raw
        (gap, answers) pair."""
        if not self.enabled or answers <= 0:
            return
        per_answer = gap_ns // answers
        trace_id = current_trace_id()
        with self._lock:
            counters = self._counters
            counters["enum.blocks"] = counters.get("enum.blocks", 0) + 1
            counters["enum.answers"] = (counters.get("enum.answers", 0)
                                        + answers)
            sketch = self._sketches.get("enum.delay_ns")
            if sketch is None:
                sketch = self._sketches["enum.delay_ns"] = QuantileSketch()
            sketch.add(per_answer, answers, trace_id=trace_id)
        for listener in self._delay_listeners:
            listener(gap_ns, answers)

    def timed(self, name: str) -> _Timed:
        """A lightweight span substitute: records wall duration into the
        ``phase.<name>`` sketch, no tree, no per-span allocation kept."""
        return _Timed(self, name)

    # --------------------------------------------------------- listeners

    def add_delay_listener(self, fn: Callable[[int, int], None]) -> None:
        with self._lock:
            if fn not in self._delay_listeners:
                self._delay_listeners = self._delay_listeners + [fn]

    def remove_delay_listener(self, fn: Callable[[int, int], None]) -> None:
        with self._lock:
            self._delay_listeners = [
                f for f in self._delay_listeners if f is not fn]

    # ------------------------------------------------------------- reading

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def sketch(self, name: str) -> Optional[QuantileSketch]:
        """A point-in-time copy of the named sketch (None if absent)."""
        with self._lock:
            sketch = self._sketches.get(name)
            return sketch.copy() if sketch is not None else None

    def snapshot(self) -> Dict[str, Any]:
        """Consistent point-in-time view: plain dicts, sketches as
        ``summary()`` digests.  Safe to JSON-serialize."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            sketches = {k: v.copy() for k, v in self._sketches.items()}
        return {
            "counters": counters,
            "gauges": gauges,
            "sketches": {k: v.summary() for k, v in sketches.items()},
        }

    def sketches(self) -> Dict[str, QuantileSketch]:
        """Point-in-time copies of all sketches (for exposition code
        that needs arbitrary quantiles, not just the summary set)."""
        with self._lock:
            return {k: v.copy() for k, v in self._sketches.items()}

    def reset(self) -> None:
        """Drop all accumulated state (tests; listeners survive)."""
        with self._lock:
            self._counters = {}
            self._gauges = {}
            self._sketches = {}


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry singleton."""
    return _REGISTRY


def set_enabled(on: bool) -> bool:
    """Flip collection on/off process-wide; returns the previous state."""
    prev = _REGISTRY.enabled
    _REGISTRY.enabled = bool(on)
    return prev


class suspended:
    """Context manager disabling collection inside the block (used by
    the overhead bench to measure the no-registry baseline)."""

    def __enter__(self) -> "suspended":
        self._prev = set_enabled(False)
        return self

    def __exit__(self, *exc: Any) -> None:
        set_enabled(self._prev)
