"""Tests for the measurement harness and the *measured* delay behaviour:
the constant-vs-linear delay separation of Theorems 4.3/4.6 must be
observable on this very machine (with modest sizes so the suite stays
fast; the benchmarks push further)."""

import time

import pytest

from repro.data import generators
from repro.enumeration.acq_linear import LinearDelayACQEnumerator
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.logic.parser import parse_cq
from repro.obs.fitting import fit_loglog
from repro.perf.delay import DelayProfile, measure_enumerator, measure_stream


def test_delay_profile_statistics():
    p = DelayProfile(preprocessing_seconds=0.5,
                     delays_seconds=[0.1, 0.2, 0.3], n_outputs=3)
    assert p.median_delay == 0.2
    assert p.max_delay == 0.3
    assert abs(p.mean_delay - 0.2) < 1e-12
    assert p.total_seconds == 0.5 + 0.6
    assert p.percentile(0.0) == 0.1
    assert p.percentile(0.99) == 0.3
    assert "pre=" in repr(p)


def test_delay_profile_empty():
    p = DelayProfile(preprocessing_seconds=0.0)
    assert p.median_delay == 0.0 and p.max_delay == 0.0
    assert p.percentile(0.5) == 0.0


def test_delay_profile_p999_tail():
    # 999 fast outputs and one slow straggler: the median hides the
    # spike, p99.9 must surface it
    delays = [1e-6] * 999 + [5e-3]
    p = DelayProfile(preprocessing_seconds=0.0, delays_seconds=delays,
                     n_outputs=1000)
    assert p.median_delay == 1e-6
    assert p.p999 == 5e-3


def test_delay_profile_summary_json_able():
    import json

    p = DelayProfile(preprocessing_seconds=0.01,
                     delays_seconds=[1e-6, 2e-6, 3e-6], n_outputs=3)
    s = p.summary()
    json.dumps(s)
    assert s["outputs"] == 3
    assert s["delay_p50_seconds"] == 2e-6
    assert s["delay_p999_seconds"] == 3e-6
    assert s["preprocessing_seconds"] == 0.01
    assert s["throughput_per_s"] == pytest.approx(3 / 6e-6)


def test_delay_profile_summary_infinite_throughput_is_none():
    # every delay rounded to zero (sub-resolution emission): throughput
    # is inf, which JSON can't carry — summary maps it to None
    p = DelayProfile(preprocessing_seconds=0.0,
                     delays_seconds=[0.0, 0.0], n_outputs=2)
    assert p.throughput == float("inf")
    assert p.summary()["throughput_per_s"] is None


def test_measure_enumerator_counts_outputs():
    db = generators.random_database({"R": 2, "S": 2}, 10, 40, seed=0)
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    profile = measure_enumerator(FreeConnexEnumerator(q, db))
    assert profile.n_outputs == len(set(FreeConnexEnumerator(q, db)))
    assert profile.preprocessing_seconds >= 0


def test_measure_stream_and_cap():
    profile = measure_stream(lambda: iter(range(100)), max_outputs=10)
    assert profile.n_outputs == 10


def test_constant_vs_linear_delay_separation():
    """The headline empirical claim: the free-connex engine's median delay
    stays flat as ||D|| grows, while Algorithm 2's grows.  Asserted
    loosely (ratios, not absolute times) to be robust on CI machines."""
    fc_query = parse_cq("Q(x) :- R(x, z), S(z, y)")
    lin_query = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    sizes = [300, 2400]
    fc_delays, lin_delays = [], []
    for n in sizes:
        db = generators.random_database({"R": 2, "S": 2}, n // 3, n, seed=7)
        fc = measure_enumerator(FreeConnexEnumerator(fc_query, db),
                                max_outputs=100)
        lin = measure_enumerator(LinearDelayACQEnumerator(lin_query, db),
                                 max_outputs=100)
        # Algorithm 2's linear cost is paid when advancing to the next
        # first-coordinate value, so it lives in the delay *tail* (p95);
        # the free-connex engine's p95 stays flat
        fc_delays.append(max(fc.percentile(0.95), 1e-7))
        lin_delays.append(max(lin.percentile(0.95), 1e-7))
    fc_growth = fc_delays[-1] / fc_delays[0]
    lin_growth = lin_delays[-1] / lin_delays[0]
    # 8x data: constant-delay growth must stay well below linear-delay
    assert fc_growth < lin_growth, (fc_delays, lin_delays)
    assert lin_growth > 2.0, lin_delays


def test_preprocessing_scales_roughly_linearly():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    sizes = [400, 800, 1600, 3200]
    times = []
    for n in sizes:
        best = float("inf")
        for _ in range(2):
            # a fresh database per repeat, so the plan cache (keyed on
            # the database fingerprint) cannot serve the second run
            db = generators.random_database({"R": 2, "S": 2}, n // 3, n,
                                            seed=3)
            enum = FreeConnexEnumerator(q, db)
            start = time.perf_counter()
            enum.preprocess()
            best = min(best, time.perf_counter() - start)
        times.append(best)
    # linear-ish, certainly not quadratic
    assert fit_loglog(sizes, times).slope < 1.7
