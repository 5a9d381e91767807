"""Batched enumeration pipeline + plan cache benchmarks (ISSUE 2).

Three claims, matching the acceptance criteria:

* at ~100k tuples the columnar block-at-a-time pipeline enumerates the
  Theorem 4.6 workload with >= 3x the throughput of the tuple-at-a-time
  constant-delay enumerator;
* a warm plan cache makes repeat preprocessing >= 5x cheaper than the
  cold run (Carmeli-Segoufin's repeated-query motivation);
* batching keeps the free-connex delay *flat* in ||D|| — amortisation
  changes the constant, not the growth shape.

Every measured case is recorded under the canonical observatory schema
via :func:`_util.record_case` (suite ``enum``): appended to
``benchmarks/history/enum.jsonl`` and merged into ``BENCH_enum.json``
at the repo root.
"""

import time

import pytest
from _util import format_rows, record, record_case

from repro.core.plancache import clear_plan_cache
from repro.data import generators
from repro.engine import enumerate as block_module
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.logic.parser import parse_cq
from repro.obs.fitting import fit_loglog
from repro.perf.delay import measure_enumerator

# Theorem 4.6 workloads: quantifier-free (enumeration-heavy) and
# projected (the paper's Q(x) example) free-connex queries
FULL_QUERY = "Q(x, z, y) :- R(x, z), S(z, y)"
PROJ_QUERY = "Q(x) :- R(x, z), S(z, y)"
N_BIG = 100_000
# >1 decade of n so the observatory can pass a shape verdict
SHAPE_SIZES = [8_000, 25_000, 50_000, 100_000]


def make_db(n, seed=7):
    return generators.random_database({"R": 2, "S": 2}, max(4, n // 4), n,
                                      seed=seed)


def _measure_mode(q, db, engine, block_size, max_outputs):
    """(DelayProfile, wall-clock answers/second) for one configuration,
    at block size ``block_size`` (``None``: the default B).

    The wall-based throughput (outputs / enumeration wall time) is the
    recorded number: inside a block the per-answer gap can round to zero,
    which would make the profile's delay-sum throughput infinite.  It
    times ``iter(enumerator)``, the stream a request reads.
    """
    with pytest.MonkeyPatch.context() as mp:
        if block_size is not None:
            mp.setattr(block_module, "DEFAULT_BLOCK_SIZE", block_size)
        clear_plan_cache()
        enum = FreeConnexEnumerator(q, db, engine=engine)
        profile = measure_enumerator(enum, max_outputs=max_outputs)
        enum2 = FreeConnexEnumerator(q, db, engine=engine)
        clear_plan_cache()
        enum2.preprocess()
        start = time.perf_counter()
        n_out = 0
        for _ in iter(enum2):
            n_out += 1
            if n_out >= max_outputs:
                break
        wall = time.perf_counter() - start
        if block_size is not None:
            clear_plan_cache()  # no plan built at this B outlives it
    return profile, n_out / max(wall, 1e-9)


def test_batched_throughput_speedup(benchmark):
    """>= 3x enumeration throughput, columnar-batched vs tuple, at 100k
    tuples on the Theorem 4.6 workload (the ISSUE acceptance threshold)."""
    q = parse_cq(FULL_QUERY)
    db = make_db(N_BIG)
    max_outputs = 200_000
    rows = []
    throughput = {}
    for mode, engine, block in (("tuple", "tuple", 1),
                                ("columnar-batched", "columnar", None)):
        profile, per_s = _measure_mode(q, db, engine, block, max_outputs)
        throughput[mode] = per_s
        record_case("enum", f"throughput/{mode}", "throughput_per_s",
                    [{"n": N_BIG, "value": per_s, **profile.summary()}])
        rows.append((mode, profile.n_outputs,
                     profile.median_delay * 1e6,
                     profile.mean_delay * 1e6, per_s / 1e6))
    text = format_rows(
        ["mode", "outputs", "median us", "mean us", "M answers/s"], rows)
    record("enum_pipeline_throughput",
           "Batched columnar vs tuple enumeration (Theorem 4.6 workload)\n"
           + text)
    ratio = throughput["columnar-batched"] / max(throughput["tuple"], 1e-9)
    record_case("enum", "throughput/speedup", "ratio",
                [{"n": N_BIG, "value": ratio}])
    assert ratio >= 3.0, text
    benchmark(lambda: sum(1 for _ in FreeConnexEnumerator(
        q, db, engine="columnar")))


def test_plan_cache_cold_vs_warm(benchmark):
    """>= 5x preprocessing speedup from a warm plan cache, both engines."""
    q = parse_cq(FULL_QUERY)
    db = make_db(N_BIG)
    rows = []
    ratios = {}
    for engine in ("tuple", "columnar"):
        cold = float("inf")
        for _ in range(2):
            clear_plan_cache()
            cold = min(cold, measure_enumerator(
                FreeConnexEnumerator(q, db, engine=engine),
                max_outputs=1).preprocessing_seconds)
        # the last cold run left the cache warm
        warm = min(measure_enumerator(
            FreeConnexEnumerator(q, db, engine=engine),
            max_outputs=1).preprocessing_seconds for _ in range(3))
        ratios[engine] = cold / max(warm, 1e-9)
        record_case("enum", f"plan_cache/{engine}-cold",
                    "preprocessing_seconds", [{"n": N_BIG, "value": cold}])
        record_case("enum", f"plan_cache/{engine}-warm",
                    "preprocessing_seconds",
                    [{"n": N_BIG, "value": warm,
                      "speedup": ratios[engine]}])
        rows.append((engine, cold * 1e3, warm * 1e3, ratios[engine]))
    text = format_rows(["engine", "cold ms", "warm ms", "speedup"], rows)
    record("enum_pipeline_plan_cache",
           "Plan cache: cold vs warm preprocessing at 100k tuples\n" + text)
    assert ratios["tuple"] >= 5.0, text
    assert ratios["columnar"] >= 5.0, text
    clear_plan_cache()
    benchmark(lambda: FreeConnexEnumerator(
        q, db, engine="columnar").preprocess())


def test_batched_delay_stays_flat(benchmark):
    """Batching must not change the Theorem 4.6 growth shape: the
    amortised per-answer delay of the columnar pipeline stays flat as
    ||D|| grows (slope ~0, same bar as the tuple path in
    benchmarks/test_bench_acq.py)."""
    q = parse_cq(PROJ_QUERY)
    rows = []
    means = []
    points = []
    for n in SHAPE_SIZES:
        db = make_db(n)
        clear_plan_cache()
        profile = measure_enumerator(
            FreeConnexEnumerator(q, db, engine="columnar"),
            max_outputs=3000)
        rows.append((n, db.size(), profile.n_outputs,
                     profile.median_delay * 1e6,
                     profile.mean_delay * 1e6))
        means.append(profile.mean_delay)
        points.append({"n": n, "value": profile.mean_delay,
                       **profile.summary()})
    text = format_rows(
        ["tuples", "||D||", "outputs", "median us", "mean us"], rows)
    record("enum_pipeline_flat_delay",
           "Batched free-connex delay vs ||D|| (expect flat)\n" + text)
    # the stored record re-fits the slope from the points; no ad-hoc row
    record_case("enum", "flat_delay/columnar-batched",
                "delay_mean_seconds", points,
                expectation="constant-delay")
    slope = fit_loglog([float(n) for n in SHAPE_SIZES], means).slope
    assert slope < 0.4, text
    db = make_db(SHAPE_SIZES[0])
    benchmark(lambda: sum(1 for _ in FreeConnexEnumerator(
        q, db, engine="columnar")))
