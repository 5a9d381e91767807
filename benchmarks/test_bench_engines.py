"""Engine benchmarks: the columnar numpy kernel vs the tuple baseline.

Three claims, matching the engine package's contract:

* on ~100k-tuple acyclic joins the columnar backend runs the full
  reducer, Yannakakis and acyclic counting at least 3x faster than the
  tuple backend (the headline perf target);
* the columnar kernels keep the paper's *linear* complexity shape — the
  full reducer and counting scale ~O(||D||), not worse;
* both backends agree exactly (a cheap smoke version of the hypothesis
  parity suite, suitable for CI).

Every timed series is recorded as one canonical observatory case
(suite ``core``, case ``<op>/<backend>``) via :func:`_util.record_case`:
appended to ``benchmarks/history/core.jsonl`` and merged into
``BENCH_core.json`` at the repo root.
"""

from _util import best_cold, format_rows, record, record_case

from repro.counting.acq_count import count_quantifier_free_acyclic
from repro.data import generators
from repro.eval.yannakakis import full_reducer, yannakakis
from repro.logic.parser import parse_cq
from repro.obs.fitting import fit_loglog

SPEEDUP_SIZES = [10000, 30000, 100000]
# >1 decade of n so the observatory can pass a shape verdict
SHAPE_SIZES = [12500, 25000, 50000, 100000, 200000]
QUERY = "Q(x, z, y) :- R(x, z), S(z, y)"


def make_db(n, seed=7):
    return generators.random_database({"R": 2, "S": 2}, max(4, n // 4), n,
                                      seed=seed)


def kernel_ops(q, backend):
    return {
        "full_reducer": lambda db: full_reducer(q, db, engine=backend),
        "yannakakis_full": lambda db: yannakakis(q, db, engine=backend),
        "acyclic_count": lambda db: count_quantifier_free_acyclic(
            q, db, engine=backend),
    }


def test_columnar_speedup_on_acyclic_joins(benchmark):
    """>= 3x over the tuple backend at N ~ 100k for the Yannakakis and
    counting kernels.  Every call runs on a fresh database, so no
    repeat is a plan-cache hit."""
    q = parse_cq(QUERY)
    rows = []
    speedups = {}
    series = {}
    for n in SPEEDUP_SIZES:
        secs = {}
        for backend in ("tuple", "columnar"):
            for op, fn in kernel_ops(q, backend).items():
                secs[(op, backend)], _ = best_cold(lambda: make_db(n), fn)
                series.setdefault((op, backend), []).append(
                    {"n": n, "value": secs[(op, backend)]})
        for op in ("full_reducer", "yannakakis_full", "acyclic_count"):
            ratio = secs[(op, "tuple")] / max(secs[(op, "columnar")], 1e-9)
            speedups[(op, n)] = ratio
            rows.append((op, n, secs[(op, "tuple")] * 1e3,
                         secs[(op, "columnar")] * 1e3, ratio))
    # no shape expectation here: the speedup sweep is sized for the 3x
    # comparison, where the columnar kernels' fixed overheads flatten
    # the curve — the dedicated SHAPE_SIZES sweep below carries it
    for (op, backend), points in sorted(series.items()):
        record_case("core", f"{op}/{backend}", "total_seconds", points)
    text = format_rows(
        ["op", "tuples", "tuple ms", "columnar ms", "speedup"], rows)
    record("engines_speedup",
           "Columnar vs tuple backend — acyclic join kernels\n" + text)
    n_max = SPEEDUP_SIZES[-1]
    for op in ("yannakakis_full", "acyclic_count"):
        assert speedups[(op, n_max)] >= 3.0, text
    db = make_db(n_max)
    benchmark(lambda: yannakakis(q, db, engine="columnar"))


def test_columnar_kernels_stay_linear(benchmark):
    """The columnar full reducer and counter keep the O(||D||) shape of
    Theorems 4.2/4.21 (log-log slope ~1, not ~2).  Every call runs on a
    fresh database: a repeat on the same one is a plan-cache hit, whose
    time does not grow with ||D||."""
    q = parse_cq(QUERY)
    rows = []
    reducer_secs, count_secs = [], []
    for n in SHAPE_SIZES:
        r, _ = best_cold(lambda: make_db(n),
                         lambda db: full_reducer(q, db, engine="columnar"))
        c, _ = best_cold(lambda: make_db(n),
                         lambda db: count_quantifier_free_acyclic(
                             q, db, engine="columnar"))
        reducer_secs.append(r)
        count_secs.append(c)
        rows.append((n, r * 1e3, c * 1e3))
    text = format_rows(["tuples", "reducer ms", "count ms"], rows)
    record("engines_linear_shape",
           "Columnar kernel scaling (expect slope ~1)\n" + text)
    record_case("core", "shape/full_reducer-columnar", "total_seconds",
                [{"n": n, "value": v}
                 for n, v in zip(SHAPE_SIZES, reducer_secs)],
                expectation="linear")
    record_case("core", "shape/acyclic_count-columnar", "total_seconds",
                [{"n": n, "value": v}
                 for n, v in zip(SHAPE_SIZES, count_secs)],
                expectation="linear")
    assert fit_loglog(SHAPE_SIZES, reducer_secs).slope < 1.35, text
    assert fit_loglog(SHAPE_SIZES, count_secs).slope < 1.35, text
    db = make_db(SHAPE_SIZES[-1])
    benchmark(lambda: full_reducer(q, db, engine="columnar"))


def test_backend_parity_smoke(benchmark):
    """Cheap exact-parity check (the CI companion of the hypothesis suite
    in tests/test_engine_parity.py)."""
    queries = [
        QUERY,
        "Q(x) :- R(x, z), S(z, y)",
        "Q() :- R(x, z), S(z, y)",
    ]
    db = make_db(2000)
    for text in queries:
        q = parse_cq(text)
        assert set(yannakakis(q, db, engine="tuple")) == \
            set(yannakakis(q, db, engine="columnar"))
    qf = parse_cq(QUERY)
    assert count_quantifier_free_acyclic(qf, db, engine="tuple") == \
        count_quantifier_free_acyclic(qf, db, engine="columnar")
    benchmark(lambda: yannakakis(qf, db, engine="columnar"))
