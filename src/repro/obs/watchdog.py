"""Runtime delay-guarantee watchdog.

PR 4's observatory checks the paper's complexity shapes *offline*: run
a sweep, fit a slope, compare the verdict with what
``core/classify.py`` promised.  The watchdog moves the same contract
online.  For every plan it takes the classifier-derived expectation
(``constant-delay`` for free-connex ACQs per Theorem 4.6, ``linear``
for acyclic per Theorem 4.3), watches the live per-answer delay sketch
against answers emitted, and fires a ``guarantee.violation`` event —
with the offending plan label — when the p99 delay drifts away from
the budget a constant-delay plan is allowed.

Mechanics: the first ``baseline_samples`` (weighted) observations of a
plan build its baseline sketch; the budget is ``factor`` x the
baseline p99 (floored at ``min_budget_ns`` to absorb clock/scheduler
noise).  Later observations fill a rolling window sketch; every
``window_samples`` answers the window p99 is compared against the
budget and the window restarts.  A constant-delay plan's p99 must not
move when the instance grows, so a sustained window p99 above
``factor`` x baseline means the plan left its guarantee — a
superlinear drift crosses any fixed factor eventually, while honest
constant-delay jitter does not.  ``linear`` expectations stay silent:
their delay is *allowed* to scale with ``||D||``, and the watchdog has
no online view of ``||D||`` to normalise against.

Tail-based trace retention rides on the same breach signal: wrap a
request in :meth:`GuaranteeWatchdog.tail_capture` and the full span
trace is kept (in a small ring) only when that request breached its
budget — deep traces are free in the common case.

Attribution: block enumerators report delay through
``obs.delay(gap_ns, answers)`` with no plan in hand.  The planner
pushes a ``(label, expectation)`` context around *each resumption* of
the answer generator (not one ``with`` around its whole suspended
lifetime — nested enumerations on the same thread would otherwise
steal each other's observations), and the watchdog's registry delay
listener reads the innermost context.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

import collections

from .registry import registry
from .sketch import QuantileSketch
from .trace import current_trace_id

#: default knobs — constructor arguments for tests that need tiny windows
BASELINE_SAMPLES = 512
WINDOW_SAMPLES = 4096
BUDGET_FACTOR = 8.0
#: noise floor: per-answer delays below this never count as violations.
#: Python scheduler/GIL jitter alone reaches tens of microseconds, so a
#: budget derived from a microsecond-scale baseline would trip on noise;
#: genuine superlinear drift crosses 100us within a few thousand answers.
MIN_BUDGET_NS = 100_000
MAX_PLANS = 64
TAIL_RING = 8


class _PlanState:
    __slots__ = ("label", "expectation", "baseline", "window", "budget_ns",
                 "violations", "answers", "checks", "last_trace_id")

    def __init__(self, label: str, expectation: Optional[str]) -> None:
        self.label = label
        self.expectation = expectation
        self.baseline = QuantileSketch()
        self.window = QuantileSketch()
        self.budget_ns: Optional[float] = None
        self.violations = 0
        self.answers = 0
        self.checks = 0
        self.last_trace_id: Optional[str] = None


class GuaranteeWatchdog:
    """Per-plan delay-budget monitor over the live registry stream."""

    def __init__(self, factor: float = BUDGET_FACTOR,
                 baseline_samples: int = BASELINE_SAMPLES,
                 window_samples: int = WINDOW_SAMPLES,
                 min_budget_ns: int = MIN_BUDGET_NS,
                 max_plans: int = MAX_PLANS,
                 tail_ring: int = TAIL_RING,
                 tail_dir: Optional[str] = None) -> None:
        self.factor = factor
        self.baseline_samples = baseline_samples
        self.window_samples = window_samples
        self.min_budget_ns = min_budget_ns
        self.max_plans = max_plans
        self.plans: Dict[str, _PlanState] = {}
        self.tail: Deque[Dict[str, Any]] = collections.deque(maxlen=tail_ring)
        self.tail_tracing = False
        #: when set, breaching requests' traces are also written to
        #: ``<tail_dir>/trace-<trace_id>.json`` so a violation event's
        #: trace_id (or a sketch exemplar) resolves to a file on disk
        self.tail_dir = tail_dir
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed = False

    # --------------------------------------------------------- expectations

    def expectation_for(self, query: Any) -> Optional[str]:
        """The classifier's delay expectation for ``query`` (memoised per
        CQ with its plan); ``None`` when the theory makes no shape claim,
        or the query cannot be classified: the watchdog never takes the
        answer stream down."""
        try:
            from .fitting import expected_verdict
            return expected_verdict(query, "delay")
        except Exception:
            return None

    # ------------------------------------------------------------- observing

    def observe(self, label: str, gap_ns: int, answers: int = 1,
                expectation: Optional[str] = None) -> None:
        """Record a delay observation for a plan: a gap of ``gap_ns``
        covering ``answers`` answers (amortised, weight = answers)."""
        if answers <= 0:
            return
        per_answer = gap_ns // answers
        trace_id = current_trace_id()
        with self._lock:
            state = self.plans.get(label)
            if state is None:
                if len(self.plans) >= self.max_plans:
                    label = "_other"
                    state = self.plans.get(label)
                if state is None:
                    state = self.plans[label] = _PlanState(label, expectation)
            if state.expectation is None and expectation is not None:
                state.expectation = expectation
            state.answers += answers
            if trace_id is not None:
                state.last_trace_id = trace_id
            if state.budget_ns is None:
                state.baseline.add(per_answer, answers, trace_id=trace_id)
                if state.baseline.count >= self.baseline_samples:
                    state.budget_ns = max(
                        float(self.min_budget_ns),
                        self.factor * state.baseline.quantile(0.99))
            else:
                state.window.add(per_answer, answers, trace_id=trace_id)
                if state.window.count >= self.window_samples:
                    self._check_locked(state)
            label = state.label
        # per-plan sketch in the registry so the exposition carries
        # per-plan delay quantiles, not just the global stream — with
        # the trace_id as the tail-bucket exemplar when sampled
        registry().observe("delay.plan." + label, per_answer, answers,
                           trace_id=trace_id)

    def flush(self, label: Optional[str] = None) -> None:
        """Force-check any partially-filled windows (stream end, tests)."""
        with self._lock:
            states = ([self.plans[label]] if label is not None
                      and label in self.plans else list(self.plans.values()))
            for state in states:
                if state.window.count:
                    self._check_locked(state)

    def _check_locked(self, state: _PlanState) -> None:
        state.checks += 1
        registry().count("watchdog.checks")
        p99 = state.window.quantile(0.99)
        window_count = state.window.count
        # the window's p99-bucket exemplar names the request that put
        # the tail where it is — more precise than "whatever ran last"
        exemplar = state.window.exemplar(0.99)
        state.window = QuantileSketch()
        if state.expectation != "constant-delay" or state.budget_ns is None:
            return
        if p99 <= state.budget_ns:
            return
        state.violations += 1
        registry().count("watchdog.violations")
        trace_id = (exemplar[1] if exemplar is not None
                    else state.last_trace_id)
        from .expose import emit_event
        emit_event(
            "guarantee.violation",
            plan=state.label,
            expected=state.expectation,
            p99_ns=p99,
            budget_ns=state.budget_ns,
            baseline_p99_ns=state.baseline.quantile(0.99),
            window_answers=window_count,
            total_answers=state.answers,
            trace_id=trace_id,
        )

    # -------------------------------------------------- attribution context

    def _stack(self) -> List[Any]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def on_delay(self, gap_ns: int, answers: int) -> None:
        """Registry delay-listener: attribute the observation to the
        innermost active plan context on this thread (if any)."""
        stack = self._stack()
        if stack:
            label, expectation = stack[-1]
            self.observe(label, gap_ns, answers, expectation)

    def watched(self, inner: Iterator[Any], label: str,
                expectation: Optional[str]) -> Iterator[Any]:
        """Wrap an answer iterator so delay observations recorded while
        *it* runs are attributed to ``label``.  The context is pushed
        around each resumption, so delays of other generators consumed
        while this one is suspended are not misattributed."""
        ctx = (label, expectation)
        stack = self._stack()
        try:
            while True:
                stack.append(ctx)
                try:
                    item = next(inner)
                finally:
                    stack.pop()
                yield item
        except StopIteration:
            return
        finally:
            self.flush(label)

    def watch_stream(self, inner: Iterator[Any], label: str,
                     expectation: Optional[str] = None,
                     stride: int = 1) -> Iterator[Any]:
        """Per-answer-timed wrapper for streams that do not pass through
        the instrumented block pipeline (serve boundaries, tests).
        ``stride`` samples every n-th gap to cut clock cost."""
        clock = time.perf_counter_ns
        pending = 0
        last = clock()
        try:
            for item in inner:
                now = clock()
                pending += 1
                if pending >= stride:
                    self.observe(label, now - last, pending, expectation)
                    pending = 0
                    last = clock()
                yield item
                if pending == 0:
                    last = clock()  # exclude consumer time from the gap
        finally:
            self.flush(label)

    # ------------------------------------------------------- tail retention

    @contextmanager
    def tail_capture(self, label: str):
        """Trace the wrapped request, but *retain* the trace (in the
        tail ring) only if the request breached its delay budget."""
        if not self.tail_tracing:
            yield None
            return
        from repro import obs
        before = self._violations_total()
        with obs.capture() as tr:
            yield tr
        if self._violations_total() > before:
            trace_id = tr.context.trace_id if tr.context is not None else None
            entry = {
                "label": label,
                "ts": time.time(),
                "tracer": tr,
                "spans": len(tr.spans),
                "trace_id": trace_id,
            }
            if self.tail_dir and trace_id:
                path = self._retain_file(trace_id, tr)
                if path is not None:
                    entry["path"] = path
            self.tail.append(entry)
            registry().count("watchdog.tail_retained")
        else:
            registry().count("watchdog.tail_discarded")

    def _retain_file(self, trace_id: str, tr: Any) -> Optional[str]:
        """Write the breaching request's Chrome trace to the tail dir;
        returns the path (None when the write failed — retention must
        never take the serving path down with it)."""
        try:
            from .export import write_chrome_trace
            os.makedirs(self.tail_dir, exist_ok=True)
            path = os.path.join(self.tail_dir, f"trace-{trace_id}.json")
            write_chrome_trace(path, tr)
            return path
        except OSError:  # pragma: no cover - disk-full etc.
            return None

    def retained_trace_path(self, trace_id: str) -> Optional[str]:
        """Resolve a trace_id (from a violation event or a sketch
        exemplar) to its retained trace file, if one exists."""
        for entry in reversed(self.tail):
            if entry.get("trace_id") == trace_id and "path" in entry:
                path = entry["path"]
                if os.path.exists(path):
                    return path
        if self.tail_dir:
            path = os.path.join(self.tail_dir, f"trace-{trace_id}.json")
            if os.path.exists(path):
                return path
        return None

    def _violations_total(self) -> int:
        with self._lock:
            return sum(s.violations for s in self.plans.values())

    # ------------------------------------------------------------ lifecycle

    def install(self) -> "GuaranteeWatchdog":
        """Attach to the registry's delay stream and start the planner
        wrapping (idempotent)."""
        if not self._installed:
            registry().add_delay_listener(self.on_delay)
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            registry().remove_delay_listener(self.on_delay)
            self._installed = False

    @property
    def active(self) -> bool:
        return self._installed

    def reset(self) -> None:
        with self._lock:
            self.plans.clear()
            self.tail.clear()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                label: {
                    "expectation": s.expectation,
                    "answers": s.answers,
                    "budget_ns": s.budget_ns,
                    "baseline_count": s.baseline.count,
                    "checks": s.checks,
                    "violations": s.violations,
                }
                for label, s in self.plans.items()
            }


_WATCHDOG = GuaranteeWatchdog()


def watchdog() -> GuaranteeWatchdog:
    """The process-wide watchdog singleton (inert until installed)."""
    return _WATCHDOG


def install(**knobs: Any) -> GuaranteeWatchdog:
    """Install (optionally re-tuned) process watchdog: ``install()`` or
    ``install(factor=4.0, window_samples=256)``."""
    global _WATCHDOG
    if knobs:
        _WATCHDOG.uninstall()
        keep_tail = _WATCHDOG.tail_tracing
        keep_dir = _WATCHDOG.tail_dir
        _WATCHDOG = GuaranteeWatchdog(**knobs)
        _WATCHDOG.tail_tracing = keep_tail
        if _WATCHDOG.tail_dir is None:
            _WATCHDOG.tail_dir = keep_dir
    return _WATCHDOG.install()


def uninstall() -> None:
    _WATCHDOG.uninstall()


def maybe_watch(query: Any, inner: Iterator[Any]) -> Iterator[Any]:
    """Planner hook: when the watchdog is installed, wrap ``inner`` with
    the attribution context for ``query``; otherwise return it as-is."""
    wd = _WATCHDOG
    if not wd._installed:
        return inner
    label = plan_label(query)
    return wd.watched(inner, label, wd.expectation_for(query))


def plan_label(query: Any) -> str:
    """A short, human-readable plan key for events and metric names."""
    try:
        text = str(query)
    except Exception:  # pragma: no cover - defensive
        text = type(query).__name__
    text = " ".join(text.split())
    return text[:80]
