"""Log-bucketed quantile sketches: constant memory, online.

The paper's guarantees are *shapes* over time: a constant-delay
enumerator's per-answer delay distribution must not move when ``||D||``
grows, while a linear-delay one's whole distribution shifts right by
orders of magnitude.  A fixed-width histogram blurs exactly that
distinction — either its buckets are microsecond-sized and a linear
plan saturates the overflow bucket, or they are millisecond-sized and
every constant-delay observation collapses into bucket zero.  A
*log-bucketed* sketch keeps constant **relative** resolution at every
scale: 60ns and 60ms land in buckets whose widths are both ~12% of the
value, so p99 read off the sketch is within ~6% of the true p99 at any
magnitude — good enough to distinguish O(1) from O(n) delay drift,
which spans decades, while using a few hundred integer cells total.

The bucketing is HDR-histogram style (log-linear): values below
``2^SUB_BITS`` are exact; above, each power-of-two octave is divided
into ``2^SUB_BITS`` equal sub-buckets.  Index arithmetic is a handful
of integer ops (``bit_length``, shifts) — no ``math.log`` — so the
sketch is cheap enough to sit on always-on paths.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: sub-buckets per power-of-two octave (2^3 = 8): worst-case relative
#: bucket width 1/8, so a midpoint estimate is within ~6% of the value
SUB_BITS = 3

_SUB = 1 << SUB_BITS  # 8


def bucket_index(value: int) -> int:
    """The bucket of a non-negative integer value (typically ns)."""
    if value < _SUB:
        return value if value > 0 else 0
    shift = value.bit_length() - SUB_BITS - 1
    if shift <= 0:
        return value  # values in [SUB, 2*SUB) are still exact
    return ((shift + 1) << SUB_BITS) + ((value >> shift) & (_SUB - 1))


def bucket_bounds(index: int) -> Tuple[int, int]:
    """The half-open value range ``[lo, hi)`` covered by a bucket."""
    if index < 2 * _SUB:
        return index, index + 1
    shift = (index >> SUB_BITS) - 1
    sub = index & (_SUB - 1)
    lo = (_SUB + sub) << shift
    return lo, lo + (1 << shift)


class QuantileSketch:
    """An online quantile sketch over non-negative values.

    ``add(value, weight)`` is O(1); ``weight`` lets block-batched
    producers record one amortised observation per block (value = the
    per-answer share of the block gap, weight = answers in the block)
    instead of paying a clock call per answer.

    The sketch tracks the exact ``count`` (sum of weights), exact
    ``total`` (sum of value*weight — so means are exact, only
    quantiles are bucketed), and exact ``min``/``max``.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def add(self, value: Any, weight: int = 1) -> None:
        """Record ``weight`` observations of ``value`` (clamped at 0)."""
        if weight <= 0:
            return
        v = int(value)
        if v < 0:
            v = 0
        idx = bucket_index(v)
        buckets = self.buckets
        buckets[idx] = buckets.get(idx, 0) + weight
        self.count += weight
        self.total += v * weight
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    # ------------------------------------------------------------- reading

    def quantile(self, q: float) -> float:
        """The approximate ``q``-quantile (q in [0, 1]); 0.0 when empty.

        Returns the midpoint of the bucket holding the q-th weighted
        observation, clamped into the exact observed [min, max] range."""
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return float(self.min or 0)
        rank = min(self.count, max(1, int(q * self.count) + 1))
        seen = 0
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= rank:
                lo, hi = bucket_bounds(idx)
                mid = (lo + hi - 1) / 2.0
                lo_clamp = float(self.min if self.min is not None else lo)
                hi_clamp = float(self.max if self.max is not None else mid)
                return min(max(mid, lo_clamp), hi_clamp)
        return float(self.max or 0)  # pragma: no cover - rank <= count

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        return [self.quantile(q) for q in qs]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, Any]:
        """JSON-able digest: count/sum/min/max plus the canonical
        p50/p95/p99/p99.9 that metrics dumps and ``repro analyze``
        read."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }

    def copy(self) -> "QuantileSketch":
        fresh = QuantileSketch()
        fresh.buckets = dict(self.buckets)
        fresh.count = self.count
        fresh.total = self.total
        fresh.min = self.min
        fresh.max = self.max
        return fresh

    def clear(self) -> None:
        self.buckets.clear()
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def __len__(self) -> int:
        return len(self.buckets)

    def __repr__(self) -> str:
        return (f"QuantileSketch(count={self.count}, "
                f"p50={self.quantile(0.5):.0f}, "
                f"p99={self.quantile(0.99):.0f}, buckets={len(self.buckets)})")
