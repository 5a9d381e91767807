"""Verdict correctness for the observatory's slope fitting.

Synthetic series with known exponents (plus multiplicative noise) must
produce the right verdict, and the anti-flake rule must force
``inconclusive`` whenever the size sweep spans less than one decade.
"""

import math
import random

import pytest

from repro.logic.parser import parse_cq
from repro.obs.fitting import (
    MIN_DECADES,
    SlopeFit,
    expected_verdict,
    fit_and_judge,
    fit_loglog,
    verdict_from_fit,
    verdict_matches,
)

SIZES = [100, 300, 1000, 3000, 10000, 30000]  # 2.5 decades


def synth(exponent, noise=0.05, seed=11, sizes=SIZES, scale=1e-6):
    rng = random.Random(seed)
    return [scale * (n ** exponent) * rng.uniform(1 - noise, 1 + noise)
            for n in sizes]


@pytest.mark.parametrize("exponent, expected", [
    (0.0, "constant-delay"),
    (1.0, "linear"),
    (2.0, "quadratic"),
])
def test_known_slopes_produce_right_verdict(exponent, expected):
    for seed in (1, 2, 3):
        fit, verdict = fit_and_judge(SIZES, synth(exponent, seed=seed))
        assert verdict == expected, (exponent, seed, fit)
        assert abs(fit.slope - exponent) < 0.1


def test_intermediate_slope_is_superlinear():
    # ~||D||^1.5 (the naive triangle join's shape): clearly worse than
    # linear but not in the quadratic band
    fit, verdict = fit_and_judge(SIZES, synth(1.5, noise=0.02))
    assert verdict == "superlinear"
    assert fit.ci_low > 1.0


def test_sub_decade_sweep_is_inconclusive():
    # perfect linear data — but the sweep spans < one decade, so the
    # anti-flake rule refuses to certify a shape
    sizes = [1000, 2000, 4000, 8000]
    assert math.log10(sizes[-1] / sizes[0]) < MIN_DECADES
    fit, verdict = fit_and_judge(sizes, [1e-6 * n for n in sizes])
    assert verdict == "inconclusive"
    assert abs(fit.slope - 1.0) < 1e-9  # the fit itself is exact


def test_too_few_points_is_inconclusive():
    fit, verdict = fit_and_judge([100, 10000], [1e-6, 1e-4])
    assert verdict == "inconclusive"
    assert not math.isfinite(fit.stderr)


def test_wide_interval_is_inconclusive():
    # noise so large the CI covers both flat and linear
    values = [1e-6, 1e-3, 1e-6, 1e-3, 1e-6, 1e-3]
    fit, verdict = fit_and_judge(SIZES, values)
    assert verdict == "inconclusive"


def test_fit_confidence_interval_brackets_slope():
    fit = fit_loglog(SIZES, synth(1.0))
    assert fit.ci_low <= fit.slope <= fit.ci_high
    assert fit.n_points == len(SIZES)
    assert fit.decades == pytest.approx(math.log10(300), rel=1e-6)
    assert 0.9 <= fit.r_squared <= 1.0


def test_fit_to_dict_is_jsonable():
    import json

    doc = fit_loglog(SIZES, synth(0.0)).to_dict()
    json.dumps(doc)
    assert set(doc) == {"slope", "intercept", "stderr", "ci_low", "ci_high",
                        "n_points", "decades", "r_squared", "reliable"}
    # two-point fits carry infinite stderr -> rendered as None, and the
    # reliable flag marks the slope as interpolation, not measurement
    two = fit_loglog([10, 1000], [1, 2]).to_dict()
    assert two["stderr"] is None
    assert two["reliable"] is False
    assert doc["reliable"] is True


def test_fewer_than_two_distinct_sizes_fit_slope_zero():
    assert fit_loglog([1], [1]).slope == 0.0
    assert fit_loglog([50, 50], [1.0, 3.0]).slope == 0.0


def test_zero_values_clamped_by_floor():
    fit = fit_loglog(SIZES, [0.0] * len(SIZES))
    assert verdict_from_fit(fit) == "constant-delay"


def test_expected_verdicts_from_classification():
    fc = parse_cq("Q(x) :- R(x, z), S(z, y)")           # free-connex
    acq = parse_cq("Q(x, y) :- R(x, z), S(z, y)")        # acyclic, not fc
    tri = parse_cq("Q() :- E(x, y), E(y, z), E(z, x)")   # cyclic
    assert expected_verdict(fc, "delay") == "constant-delay"
    assert expected_verdict(fc, "preprocessing") == "linear"
    assert expected_verdict(acq, "delay") == "linear"
    assert expected_verdict(acq, "total") == "linear"
    assert expected_verdict(tri, "total") == "superlinear"
    assert expected_verdict(tri, "delay") == "superlinear"


def test_expected_verdict_none_for_comparisons():
    lt = parse_cq("Q(x, y) :- R(x, z), S(z, y), x < y")
    assert expected_verdict(lt, "delay") is None


def test_verdict_matches_semantics():
    assert verdict_matches("constant-delay", "constant-delay") is True
    assert verdict_matches("linear", "constant-delay") is False
    assert verdict_matches("quadratic", "superlinear") is True
    assert verdict_matches("superlinear", "quadratic") is True
    assert verdict_matches("linear", "superlinear") is False
    assert verdict_matches("inconclusive", "linear") is None
    assert verdict_matches("linear", None) is None


def test_manual_slopefit_verdict_bands():
    def vf(slope, half):
        return verdict_from_fit(SlopeFit(
            slope, 0.0, half / 2, slope - half, slope + half,
            n_points=5, decades=2.0, r_squared=0.99))

    assert vf(0.05, 0.1) == "constant-delay"
    assert vf(1.1, 0.1) == "linear"
    assert vf(2.05, 0.2) == "quadratic"
    assert vf(1.55, 0.15) == "superlinear"
    assert vf(0.5, 0.6) == "inconclusive"  # covers both 0 and 1
