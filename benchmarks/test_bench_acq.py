"""T4.2 / T4.3 / T4.6 / T4.20: the ACQ evaluation & enumeration ladder.

* Yannakakis total time tracks O(||D|| * output) (Theorem 4.2);
* Algorithm 2's delay grows linearly with ||D|| (Theorem 4.3);
* the free-connex engine's delay stays flat (Theorem 4.6);
* free-connex with disequalities stays flat too (Theorem 4.20).
"""

import time

from _util import format_rows, record, record_case, timed

from repro.data import generators
from repro.enumeration.acq_linear import LinearDelayACQEnumerator
from repro.enumeration.disequality import DisequalityEnumerator
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.eval.yannakakis import yannakakis
from repro.logic.parser import parse_cq
from repro.obs.fitting import fit_loglog
from repro.perf.delay import measure_enumerator

# >1 decade of ||D||: the observatory's anti-flake rule refuses a
# verdict on narrower sweeps (see repro.obs.fitting)
SIZES = [1000, 2000, 4000, 8000, 16000]


def make_db(n, seed=7):
    return generators.random_database({"R": 2, "S": 2}, max(4, n // 4), n,
                                      seed=seed)


def test_t42_yannakakis_output_sensitive(benchmark):
    """Theorem 4.2: time per produced tuple stays bounded as ||D|| grows
    (total time O(||phi|| ||D|| ||out||))."""
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    rows = []
    per_tuple = []
    for n in SIZES:
        db = make_db(n)
        start = time.perf_counter()
        out = yannakakis(q, db)
        elapsed = time.perf_counter() - start
        rows.append((n, db.size(), len(out), elapsed * 1e3,
                     elapsed / max(len(out), 1) * 1e6))
        per_tuple.append(elapsed / max(len(out), 1))
    text = format_rows(["tuples", "||D||", "|out|", "total ms", "us/tuple"], rows)
    record("t42_yannakakis", "Theorem 4.2 — Yannakakis output-sensitive eval\n" + text)
    record_case("acq", "t42_yannakakis/per_tuple", "per_tuple_seconds",
                [{"n": r[1], "value": v, "outputs": r[2]}
                 for r, v in zip(rows, per_tuple)])
    # per-tuple cost must not grow linearly with ||D||
    slope = fit_loglog([r[1] for r in rows], per_tuple).slope
    assert slope < 0.75, text
    db = make_db(4000)
    benchmark(lambda: yannakakis(q, db))


def test_t43_linear_delay_grows(benchmark):
    """Theorem 4.3: Algorithm 2's tail delay grows with ||D||."""
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    rows = []
    means = []
    for n in SIZES:
        db = make_db(n)
        profile = measure_enumerator(LinearDelayACQEnumerator(q, db),
                                     max_outputs=2000)
        rows.append((n, db.size(), profile.n_outputs,
                     profile.mean_delay * 1e6,
                     profile.max_delay * 1e6))
        # the linear cost is paid at every first-coordinate advance, so the
        # MEAN delay (advances amortised over outputs) is the robust signal
        means.append(profile.mean_delay)
    text = format_rows(["tuples", "||D||", "outputs", "mean us", "max us"], rows)
    record("t43_linear_delay", "Theorem 4.3 — Algorithm 2 linear delay\n" + text)
    record_case("acq", "t43_alg2/delay", "delay_mean_seconds",
                [{"n": r[1], "value": v, "outputs": r[2]}
                 for r, v in zip(rows, means)])
    assert means[-1] > 1.5 * means[0], text  # delay visibly grows over 8x data
    db = make_db(2000)
    benchmark(lambda: list(LinearDelayACQEnumerator(q, db)))


def test_t46_constant_delay_flat(benchmark):
    """Theorem 4.6: free-connex delay is independent of ||D||."""
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    rows = []
    p95s = []
    for n in SIZES:
        db = make_db(n)
        profile = measure_enumerator(FreeConnexEnumerator(q, db),
                                     max_outputs=400)
        rows.append((n, db.size(), profile.n_outputs,
                     profile.preprocessing_seconds * 1e3,
                     profile.median_delay * 1e6,
                     profile.percentile(0.95) * 1e6))
        p95s.append(profile.percentile(0.95))
    text = format_rows(
        ["tuples", "||D||", "outputs", "pre ms", "median us", "p95 us"], rows)
    record("t46_constant_delay", "Theorem 4.6 — free-connex constant delay\n" + text)
    record_case("acq", "t46_free_connex/delay_p95", "delay_p95_seconds",
                [{"n": r[1], "value": v, "outputs": r[2]}
                 for r, v in zip(rows, p95s)],
                expectation="constant-delay")
    slope = fit_loglog([r[1] for r in rows], p95s).slope
    assert slope < 0.4, text  # flat
    db = make_db(2000)
    benchmark(lambda: list(FreeConnexEnumerator(q, db)))


def test_t420_disequality_constant_delay(benchmark):
    """Theorem 4.20: disequalities do not break the flat delay for
    free-connex queries."""
    q = parse_cq("Q(x, y) :- R(x, z), S(y, w), x != y")
    rows = []
    p95s = []
    for n in SIZES:
        db = make_db(n)
        profile = measure_enumerator(DisequalityEnumerator(q, db),
                                     max_outputs=400)
        rows.append((n, db.size(), profile.n_outputs,
                     profile.median_delay * 1e6,
                     profile.percentile(0.95) * 1e6))
        p95s.append(profile.percentile(0.95))
    text = format_rows(["tuples", "||D||", "outputs", "median us", "p95 us"], rows)
    record("t420_disequality", "Theorem 4.20 — ACQ!= constant delay\n" + text)
    record_case("acq", "t420_disequality/delay_p95", "delay_p95_seconds",
                [{"n": r[1], "value": v, "outputs": r[2]}
                 for r, v in zip(rows, p95s)],
                expectation="constant-delay")
    slope = fit_loglog([r[1] for r in rows], p95s).slope
    assert slope < 0.4, text
    db = make_db(2000)
    benchmark(lambda: sum(1 for _ in DisequalityEnumerator(q, db)))
