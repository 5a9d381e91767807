"""Scaling-law fits and complexity verdicts for the observatory.

The paper's claims are growth *shapes* — flat delay for free-connex ACQs
(Theorem 4.6), linear total time for acyclic evaluation (Theorem 4.2),
conditional superlinear lower bounds (Theorems 4.8/4.9) — so a benchmark
measurement is only meaningful as a fitted log-log slope, and a slope is
only meaningful with its uncertainty.  This module fits least-squares
slopes on log-log axes *with confidence intervals* and turns the fitted
interval into a categorical **verdict** that can be compared against the
expectation the classifier (:mod:`repro.core.classify`) derives from the
query's structure.

Why interval-based verdicts rather than point estimates: a point slope of
0.31 measured over three noisy sizes says nothing — the same data are
compatible with flat and with linear growth.  The verdict logic therefore
works on the CI widened by a noise-tolerance band, and refuses to decide
(``inconclusive``) when the size sweep spans less than one decade or the
interval covers more than one candidate shape.  DESIGN.md documents the
policy; :mod:`tests.test_obs_fitting` pins it on synthetic slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

#: the verdict vocabulary, in increasing growth order.  ``superlinear``
#: covers clearly-worse-than-linear fits that do not land in the
#: quadratic band (e.g. the naive triangle join at ~||D||^1.5).
VERDICTS = ("constant-delay", "linear", "quadratic", "superlinear",
            "inconclusive")

#: target slopes for the named shapes
SHAPE_TARGETS = {
    "constant-delay": 0.0,
    "linear": 1.0,
    "quadratic": 2.0,
}

#: verdicts that certify worse-than-linear growth
SUPERLINEAR_FAMILY = frozenset({"quadratic", "superlinear"})

#: minimum log10 span of the size sweep for a conclusive verdict — below
#: one decade a slope fit is dominated by constant factors and cache
#: effects, so the anti-flake rule forces ``inconclusive``
MIN_DECADES = 1.0

#: minimum sweep points for a fit to count as *reliable*: with fewer the
#: residual degrees of freedom are zero, the CI is infinite, and the
#: slope is pure interpolation.  Verdicts refuse below this, and
#: :meth:`SlopeFit.to_dict` carries the flag so downstream consumers
#: (reports, snapshot files) can suppress the number instead of printing
#: a two-point "slope" as if it measured anything
MIN_FIT_POINTS = 3

#: default half-width of the noise-tolerance band added around the CI
SLOPE_TOLERANCE = 0.25

# two-sided 95% Student-t critical values by degrees of freedom (no
# scipy in the container; beyond the table 1.96 is used)
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
        7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 12: 2.179, 15: 2.131,
        20: 2.086, 30: 2.042}


def _t_critical(df: int) -> float:
    if df <= 0:
        return math.inf
    if df in _T95:
        return _T95[df]
    for bound in sorted(_T95):
        if df < bound:
            return _T95[bound]
    return 1.96


@dataclass(frozen=True)
class SlopeFit:
    """A least-squares fit of log10(value) against log10(size)."""

    slope: float
    intercept: float
    stderr: float
    ci_low: float
    ci_high: float
    n_points: int
    decades: float
    r_squared: float

    @property
    def reliable(self) -> bool:
        """Whether the slope is a measurement rather than interpolation:
        at least :data:`MIN_FIT_POINTS` points and a finite CI."""
        return self.n_points >= MIN_FIT_POINTS and math.isfinite(self.stderr)

    def to_dict(self) -> dict:
        """JSON-able rendering (infinities become None)."""
        def _num(x: float) -> Optional[float]:
            return x if math.isfinite(x) else None

        return {
            "slope": _num(self.slope),
            "intercept": _num(self.intercept),
            "stderr": _num(self.stderr),
            "ci_low": _num(self.ci_low),
            "ci_high": _num(self.ci_high),
            "n_points": self.n_points,
            "decades": _num(self.decades),
            "r_squared": _num(self.r_squared),
            "reliable": self.reliable,
        }

    def __str__(self) -> str:
        if not math.isfinite(self.stderr):
            return f"{self.slope:.2f} [?]"
        return f"{self.slope:.2f} [{self.ci_low:.2f}, {self.ci_high:.2f}]"


def fit_loglog(sizes: Sequence[float], values: Sequence[float],
               floor: float = 1e-9) -> SlopeFit:
    """Fit log10(value) ~ slope * log10(size) + intercept.

    Values are clamped below by ``floor`` (timers can report ~0 for
    trivial inputs).  The 95% CI uses the Student-t quantile on the
    residual standard error; with fewer than three points the interval
    is infinite (stderr ``inf``), which the verdict logic reads as
    inconclusive.
    """
    points = [(math.log10(s), math.log10(max(v, floor)))
              for s, v in zip(sizes, values) if s > 0]
    n = len(points)
    positive = [s for s in sizes if s > 0]
    decades = (math.log10(max(positive) / min(positive))
               if len(positive) >= 2 else 0.0)
    if n < 2:
        return SlopeFit(0.0, 0.0, math.inf, -math.inf, math.inf,
                        n, decades, 0.0)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    if sxx == 0:
        return SlopeFit(0.0, mean_y, math.inf, -math.inf, math.inf,
                        n, decades, 0.0)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    sse = sum((y - (intercept + slope * x)) ** 2 for x, y in points)
    syy = sum((y - mean_y) ** 2 for _, y in points)
    r_squared = 1.0 - sse / syy if syy > 0 else 1.0
    if n > 2:
        stderr = math.sqrt(max(sse, 0.0) / (n - 2) / sxx)
        half = _t_critical(n - 2) * stderr
    else:
        stderr = math.inf
        half = math.inf
    return SlopeFit(slope, intercept, stderr, slope - half, slope + half,
                    n, decades, r_squared)


def verdict_from_fit(fit: SlopeFit,
                     min_decades: float = MIN_DECADES,
                     min_points: int = MIN_FIT_POINTS,
                     tolerance: float = SLOPE_TOLERANCE) -> str:
    """Map a fitted slope interval to one of :data:`VERDICTS`.

    The decision interval is the 95% CI widened to at least
    ``slope +- tolerance`` (the noise band: CPython timers jitter even
    when the fit happens to be tight).  A shape is certified only when
    its target slope is the *unique* candidate inside the interval;
    an interval covering two candidates, too few points, or a size sweep
    under ``min_decades`` decades all yield ``inconclusive``.
    """
    if fit.n_points < min_points or fit.decades < min_decades:
        return "inconclusive"
    lo = min(fit.ci_low, fit.slope - tolerance)
    hi = max(fit.ci_high, fit.slope + tolerance)
    contained = [name for name, target in SHAPE_TARGETS.items()
                 if lo <= target <= hi]
    if len(contained) == 1:
        return contained[0]
    if contained:
        return "inconclusive"
    if lo > 1.0:
        return "superlinear"
    return "inconclusive"


def fit_and_judge(sizes: Sequence[float], values: Sequence[float],
                  **kwargs) -> "tuple[SlopeFit, str]":
    """Convenience: the fit and its verdict in one call."""
    fit = fit_loglog(sizes, values)
    return fit, verdict_from_fit(fit, **kwargs)


# -------------------------------------------------------- expectations


def expected_verdict(query, metric_kind: str) -> Optional[str]:
    """The verdict the theory predicts for ``query`` and a metric kind.

    ``metric_kind`` is one of ``delay`` (per-answer enumeration delay),
    ``total`` (full evaluation wall time), ``preprocessing``
    (Section 2.3.3 phase one).  For a CQ the answer is the memoised
    plan's expected class (:func:`repro.core.classify.plan_for`), so the
    planner, ``analyze`` and the observatory share one source; other queries map their report's facts through the same
    :func:`repro.core.classify.expected_classes`:

    * free-connex ACQ + ``delay``  -> ``constant-delay`` (Theorem 4.6);
    * acyclic, not free-connex + ``delay`` -> ``linear`` (Theorem 4.3);
    * acyclic + ``total``/``preprocessing`` -> ``linear``
      (Theorems 4.2 / 4.6; output size grows linearly on the standard
      random workloads);
    * cyclic + anything -> ``superlinear`` (Theorems 4.8 / 4.9
      conditional lower bounds).

    Self-join queries gate on the *effective* structure, the best of the
    query and its homomorphic core (Carmeli-Segoufin, arXiv 2206.04988),
    because the planner runs the core.

    Returns ``None`` when the classification carries no shape claim for
    the metric (e.g. comparisons, where even deciding is W[1]-hard).
    """
    from repro.core.classify import classify, expected_classes, plan_for
    from repro.logic.cq import ConjunctiveQuery

    if metric_kind not in ("delay", "total", "preprocessing"):
        raise ValueError(f"unknown metric kind {metric_kind!r}")
    if isinstance(query, ConjunctiveQuery):
        plan = plan_for(query)
        delay, preprocessing = plan.expected_delay, plan.expected_preprocessing
    else:
        delay, preprocessing = expected_classes(classify(query).facts)
    return delay if metric_kind == "delay" else preprocessing


def verdict_matches(measured: str, expected: Optional[str]) -> Optional[bool]:
    """Does a measured verdict satisfy the expectation?

    Returns ``None`` (no judgement) when there is no expectation or the
    measurement is inconclusive; superlinear expectations are satisfied
    by any member of :data:`SUPERLINEAR_FAMILY` (a conditional lower
    bound promises *worse than linear*, not an exact exponent).
    """
    if expected is None or measured == "inconclusive":
        return None
    if expected in SUPERLINEAR_FAMILY:
        return measured in SUPERLINEAR_FAMILY
    return measured == expected
