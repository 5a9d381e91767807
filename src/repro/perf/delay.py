"""Per-output delay measurement (the empirical rendering of
Constant-Delay_lin, Section 2.3.3).

The theorems speak RAM steps; on CPython we measure wall-clock gaps
between consecutive outputs and compare their *growth in the database
size* — a constant-delay algorithm shows a flat median-delay curve while
a linear-delay one grows proportionally.  Medians (and high percentiles)
are reported instead of means because the first probe after preprocessing
may fault caches and the GC adds stray spikes.

Timing uses :func:`time.perf_counter_ns` and subtracts the measured cost
of the clock call pair itself (calibrated once per process, re-measured
lazily): the batched columnar pipeline emits answers tens of nanoseconds
apart inside a block, a regime where the ~50-100ns timer overhead of
``perf_counter()`` float arithmetic would otherwise dominate — or, after
rounding, report the delay as exactly zero.  Subtracted delays are
clamped at 0.
"""

from __future__ import annotations

import gc
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

_NS = 1e-9

# measured cost, in ns, of one perf_counter_ns() call pair (the gap two
# back-to-back calls report when nothing happens between them); None
# until first calibration.  The lock serialises calibration so threads
# racing the lazy global (e.g. concurrent delay measurements) never see
# a torn or doubly-run calibration.
_TIMER_OVERHEAD_NS: Optional[int] = None
_TIMER_LOCK = threading.Lock()


def timer_overhead_ns(recalibrate: bool = False) -> int:
    """The calibrated per-sample clock overhead, in nanoseconds.

    Median of a few hundred back-to-back ``perf_counter_ns`` gaps — the
    median is robust against scheduler preemptions landing inside the
    calibration loop.  Thread-safe: the first caller (or a recalibrating
    one) runs the loop under a lock, everyone else reads the published
    value.  Traces record this floor as the ``timer_overhead_ns`` gauge
    in every metrics dump (:func:`repro.obs.metrics`).
    """
    global _TIMER_OVERHEAD_NS
    value = _TIMER_OVERHEAD_NS
    if value is not None and not recalibrate:
        return value
    with _TIMER_LOCK:
        if _TIMER_OVERHEAD_NS is None or recalibrate:
            clock = time.perf_counter_ns
            samples: List[int] = []
            last = clock()
            for _ in range(301):
                now = clock()
                samples.append(now - last)
                last = now
            _TIMER_OVERHEAD_NS = int(statistics.median(samples))
        return _TIMER_OVERHEAD_NS


@dataclass
class DelayProfile:
    """Timing of one enumeration run."""

    preprocessing_seconds: float
    delays_seconds: List[float] = field(default_factory=list)
    n_outputs: int = 0

    @property
    def median_delay(self) -> float:
        return statistics.median(self.delays_seconds) if self.delays_seconds else 0.0

    @property
    def mean_delay(self) -> float:
        return statistics.fmean(self.delays_seconds) if self.delays_seconds else 0.0

    @property
    def max_delay(self) -> float:
        return max(self.delays_seconds) if self.delays_seconds else 0.0

    def percentile(self, q: float) -> float:
        """q in (0, 1): the q-th delay quantile."""
        if not self.delays_seconds:
            return 0.0
        ordered = sorted(self.delays_seconds)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    @property
    def p999(self) -> float:
        """The 99.9th-percentile delay — the tail statistic the
        observatory's constant-delay verdict consults (block batching
        can hide per-block spikes from the median entirely)."""
        return self.percentile(0.999)

    @property
    def total_seconds(self) -> float:
        return self.preprocessing_seconds + sum(self.delays_seconds)

    @property
    def throughput(self) -> float:
        """Answers per second of pure enumeration time (preprocessing
        excluded).  0.0 with no outputs; inf when every measured delay
        rounded to zero (sub-resolution emission)."""
        if self.n_outputs == 0:
            return 0.0
        enumeration = sum(self.delays_seconds)
        if enumeration <= 0.0:
            return float("inf")
        return self.n_outputs / enumeration

    def summary(self) -> Dict[str, Any]:
        """The canonical per-run statistics block of the observatory
        schema (:mod:`repro.obs.observatory`): delay percentiles up to
        p99.9, preprocessing time and throughput.  All values JSON-able; an unmeasurable throughput
        (every delay rounded to zero) becomes ``None`` rather than
        ``inf``."""
        throughput = self.throughput
        return {
            "outputs": self.n_outputs,
            "preprocessing_seconds": self.preprocessing_seconds,
            "delay_p50_seconds": self.percentile(0.50),
            "delay_p95_seconds": self.percentile(0.95),
            "delay_p99_seconds": self.percentile(0.99),
            "delay_p999_seconds": self.p999,
            "delay_mean_seconds": self.mean_delay,
            "delay_max_seconds": self.max_delay,
            "throughput_per_s": (throughput if math.isfinite(throughput)
                                 else None),
        }

    def __repr__(self) -> str:
        return (
            f"DelayProfile(pre={self.preprocessing_seconds * 1e3:.2f}ms, "
            f"outputs={self.n_outputs}, median={self.median_delay * 1e6:.2f}us, "
            f"p95={self.percentile(0.95) * 1e6:.2f}us, "
            f"max={self.max_delay * 1e6:.2f}us)"
        )


def measure_enumerator(enumerator, max_outputs: Optional[int] = None) -> DelayProfile:
    """Time an object following the two-phase protocol of
    :class:`repro.enumeration.base.Enumerator`.

    Garbage is collected first, so a collection owed by the caller's
    earlier allocations (building a large database, say) never lands
    inside the measured phases."""
    timer_overhead_ns()  # calibrate outside the timed region
    gc.collect()
    start = time.perf_counter_ns()
    enumerator.preprocess()
    pre = (time.perf_counter_ns() - start) * _NS
    return _consume(enumerator._enumerate(), pre, max_outputs)


def measure_stream(make_iterator: Callable[[], Iterator[Any]],
                   max_outputs: Optional[int] = None) -> DelayProfile:
    """Time a bare iterator factory: the factory call is the
    preprocessing phase, iteration gaps are the delays.  Garbage is
    collected first, as in :func:`measure_enumerator`."""
    timer_overhead_ns()
    gc.collect()
    start = time.perf_counter_ns()
    iterator = make_iterator()
    pre = (time.perf_counter_ns() - start) * _NS
    return _consume(iterator, pre, max_outputs)


def _consume(iterator: Iterator[Any], pre: float,
             max_outputs: Optional[int]) -> DelayProfile:
    overhead = timer_overhead_ns()
    clock = time.perf_counter_ns
    profile = DelayProfile(preprocessing_seconds=pre)
    delays = profile.delays_seconds
    last = clock()
    for item in iterator:
        now = clock()
        gap = now - last - overhead
        delays.append(gap * _NS if gap > 0 else 0.0)
        profile.n_outputs += 1
        if max_outputs is not None and profile.n_outputs >= max_outputs:
            break
        last = now
    return profile
