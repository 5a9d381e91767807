"""T4.21 / T4.22-Eq2 / T4.28: the counting ladder.

* quantifier-free acyclic counting scales linearly and agrees with the
  naive count (Theorem 4.21), weighted included;
* the star-size sweep: runtime scales like ||D||^s for s = 1, 2, 3
  (Theorem 4.28);
* Equation 2: perfect matchings through 2^n tractable-counting calls
  match Ryser's formula (the #P-hardness mechanism of Theorem 4.22).
"""

from _util import format_rows, record, record_case, timed

from repro.counting.acq_count import (
    count_acq,
    count_cq_naive,
    count_quantifier_free_acyclic,
)
from repro.counting.matchings import (
    count_perfect_matchings_bruteforce,
    count_perfect_matchings_via_acq,
)
from repro.counting.weighted import WeightFunction
from repro.data import generators
from repro.logic.parser import parse_cq
from repro.obs.fitting import fit_loglog


def make_db(n, seed=11):
    return generators.random_database({"R": 2, "S": 2, "T": 2},
                                      max(4, n // 4), n, seed=seed)


def test_t421_quantifier_free_linear(benchmark):
    """Theorem 4.21: #ACQ^0 in (near-)linear time, exact and weighted."""
    q = parse_cq("Q(x, y, z) :- R(x, y), S(y, z)")
    w = WeightFunction(lambda v: (v % 3) + 1)
    rows = []
    times, sizes = [], []
    # >1 decade of n so the observatory can pass a verdict
    for n in (2000, 4000, 8000, 16000, 32000):
        db = make_db(n)
        count = count_quantifier_free_acyclic(q, db)
        weighted = count_quantifier_free_acyclic(q, db, w)
        elapsed = min(timed(lambda: count_quantifier_free_acyclic(q, db))
                      for _ in range(3))
        rows.append((n, db.size(), count, weighted, elapsed * 1e3))
        times.append(elapsed)
        sizes.append(db.size())
    slope = fit_loglog(sizes, times).slope
    text = format_rows(["tuples", "||D||", "count", "weighted", "ms"], rows)
    record("t421_qf_counting",
           f"Theorem 4.21 — #ACQ^0 linear counting (slope {slope:.2f})\n" + text)
    record_case("counting", "t421_qf_count/total", "total_seconds",
                [{"n": size, "value": v, "count": r[2]}
                 for size, v, r in zip(sizes, times, rows)],
                expectation="linear")
    assert slope < 1.4, text
    db = make_db(4000)
    assert count_quantifier_free_acyclic(q, db) == count_cq_naive(q, db)
    benchmark(lambda: count_quantifier_free_acyclic(q, db))


def test_t428_star_size_sweep(benchmark):
    """Theorem 4.28: counting cost grows with the quantified star size —
    the ||D||^s shape, on one database per size."""
    sweep = [
        (1, "Q(x) :- R(x, z), S(z, y)"),
        (2, "Q(x, y) :- R(x, z), S(z, y)"),
        (3, "Q(x, y, w) :- R(x, z), S(z, y), T(z, w)"),
    ]
    db = make_db(3000)
    rows = []
    times = []
    for s, text_q in sweep:
        q = parse_cq(text_q)
        assert q.quantified_star_size() == s
        count = count_acq(q, db)
        elapsed = min(timed(lambda: count_acq(q, db)) for _ in range(2))
        rows.append((s, count, elapsed * 1e3))
        times.append(elapsed)
    text = format_rows(["star size", "count", "ms"], rows)
    record("t428_star_sweep",
           "Theorem 4.28 — #ACQ cost grows with star size s "
           "(same ||D||)\n" + text)
    assert times[0] < times[1] < times[2], text
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    benchmark(lambda: count_acq(q, db))


def test_t428_scaling_in_database(benchmark):
    """Theorem 4.28, the other axis: at star size 2 the cost grows
    superlinearly in ||D|| (near ||D||^2 worst-case; the measured slope
    sits between the star-1 linear slope and 2)."""
    q1 = parse_cq("Q(x) :- R(x, z), S(z, y)")
    q2 = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    rows = []
    t1s, t2s, sizes = [], [], []
    for n in (1000, 2000, 4000):
        db = make_db(n)
        t1 = min(timed(lambda: count_acq(q1, db)) for _ in range(2))
        t2 = min(timed(lambda: count_acq(q2, db)) for _ in range(2))
        rows.append((n, db.size(), t1 * 1e3, t2 * 1e3))
        t1s.append(t1)
        t2s.append(t2)
        sizes.append(db.size())
    s1 = fit_loglog(sizes, t1s).slope
    s2 = fit_loglog(sizes, t2s).slope
    text = format_rows(["tuples", "||D||", "s=1 ms", "s=2 ms"], rows)
    record("t428_scaling",
           f"Theorem 4.28 — star size 1 slope {s1:.2f} vs star size 2 "
           f"slope {s2:.2f}\n" + text)
    record_case("counting", "t428_star1/total", "total_seconds",
                [{"n": size, "value": v} for size, v in zip(sizes, t1s)])
    record_case("counting", "t428_star2/total", "total_seconds",
                [{"n": size, "value": v} for size, v in zip(sizes, t2s)])
    assert s2 > s1, text
    db = make_db(2000)
    benchmark(lambda: count_acq(q1, db))


def test_t422_matchings_equation2(benchmark):
    """Equation 2 / Theorem 4.22: perfect matchings through the #ACQ^0
    oracle vs Ryser — equal counts, with the oracle route paying 2^n
    tractable calls (the #P mechanism)."""
    rows = []
    for n in (5, 6, 7, 8):
        db, a, b = generators.random_bipartite_graph(n, 0.5, seed=n)
        via = count_perfect_matchings_via_acq(db, a, b)
        brute = count_perfect_matchings_bruteforce(db, a, b)
        assert via == brute
        t_via = timed(lambda: count_perfect_matchings_via_acq(db, a, b))
        rows.append((n, via, t_via * 1e3))
    text = format_rows(["n", "perfect matchings", "via-#ACQ ms"], rows)
    record("t422_matchings",
           "Equation 2 / Theorem 4.22 — permanent via 2^n #ACQ^0 calls\n"
           + text)
    db, a, b = generators.random_bipartite_graph(6, 0.5, seed=0)
    benchmark(lambda: count_perfect_matchings_via_acq(db, a, b))


def test_t428_unbounded_star_size_hardness(benchmark):
    """Theorem 4.28's hardness half: over a query CLASS of unbounded star
    size (Equation 2's psi_k), counting time explodes in k on a fixed
    database — the #W[1] shape (the parameter is the query)."""
    from repro.counting.matchings import star_query
    from repro.data.generators import random_bipartite_graph

    db, a, b = random_bipartite_graph(7, 0.6, seed=2)
    rows = []
    times = []
    for k in (2, 3, 4):
        psi = star_query(a[:k])
        assert psi.quantified_star_size() == k
        n = count_acq(psi, db)
        elapsed = timed(lambda: count_acq(psi, db))
        rows.append((k, n, elapsed * 1e3))
        times.append(elapsed)
    text = format_rows(["k (= star size)", "count", "ms"], rows)
    record("t428_hardness",
           "Theorem 4.28 hardness — unbounded star size: counting cost "
           "explodes in the query parameter k\n" + text)
    assert times[-1] > times[0], text
    psi = star_query(a[:3])
    benchmark(lambda: count_acq(psi, db))
