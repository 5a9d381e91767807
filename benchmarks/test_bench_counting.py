"""T4.21 / T4.22-Eq2 / T4.28: the counting ladder.

* quantifier-free acyclic counting scales linearly and agrees with the
  naive count (Theorem 4.21), weighted included;
* the star-size sweep: cold counting cost grows with s = 1, 2, 3, and on
  a hub family, whose star-size-s projection has Theta(||D||^s) rows, it
  scales like ||D||^s (Theorem 4.28);
* Equation 2: perfect matchings through 2^n tractable-counting calls
  match Ryser's formula (the #P-hardness mechanism of Theorem 4.22).
"""

import time
from collections import defaultdict

from _util import best_cold, format_rows, record, record_case, timed

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
from repro.data.database import Database
from repro.engine import use_engine
from repro.logic.parser import parse_cq
from repro.obs.fitting import fit_loglog


STAR1 = parse_cq("Q(x) :- R(x, z), S(z, y)")
STAR2 = parse_cq("Q(x, y) :- R(x, z), S(z, y)")


def make_db(n, seed=11):
    return generators.random_database({"R": 2, "S": 2, "T": 2},
                                      max(4, n // 4), n, seed=seed)


def hub_db(n):
    """R = {(i, hub)} and S = {(hub, j)} for i, j < n: ||D|| is Theta(n)
    and the star-size-2 query has n^2 answers."""
    return Database.from_relations({"R": [(i, -1) for i in range(n)],
                                    "S": [(-1, j) for j in range(n)]})


def warm_up():
    """Pay the first count's one-time set-up in a process (imports,
    first plan builds) on a database no timing uses."""
    db = make_db(500, seed=99)
    for q in (STAR1, STAR2):
        count_acq(q, db)


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
    """Theorem 4.28: cold counting cost grows with the quantified star
    size, on databases of one size (a fresh one per timing)."""
    sweep = [
        (1, "Q(x) :- R(x, z), S(z, y)"),
        (2, "Q(x, y) :- R(x, z), S(z, y)"),
        (3, "Q(x, y, w) :- R(x, z), S(z, y), T(z, w)"),
    ]
    warm_up()
    rows = []
    times = []
    for s, text_q in sweep:
        q = parse_cq(text_q)
        assert q.quantified_star_size() == s
        elapsed, count = best_cold(lambda: make_db(3000),
                                   lambda db: count_acq(q, db))
        rows.append((s, count, elapsed * 1e3))
        times.append(elapsed)
    text = format_rows(["star size", "count", "ms"], rows)
    record("t428_star_sweep",
           "Theorem 4.28 — cold #ACQ cost grows with star size s "
           "(same ||D||)\n" + text)
    assert times[0] < times[1] < times[2], text
    db = make_db(3000)
    benchmark(lambda: count_acq(STAR2, db))


def test_t428_scaling_in_database(benchmark):
    """Theorem 4.28, the other axis, on the random fixed-degree family:
    every projection there has O(||D||) rows, so cold counts grow about
    linearly at star size 1 and 2 alike.  The hub family below is the
    one that separates the exponents."""
    rows = []
    t1s, t2s, sizes = [], [], []
    warm_up()
    for n in (1000, 2000, 4000):
        t1, _ = best_cold(lambda: make_db(n), lambda db: count_acq(STAR1, db))
        t2, _ = best_cold(lambda: make_db(n), lambda db: count_acq(STAR2, db))
        size = make_db(n).size()
        rows.append((n, size, t1 * 1e3, t2 * 1e3))
        t1s.append(t1)
        t2s.append(t2)
        sizes.append(size)
    s1 = fit_loglog(sizes, t1s).slope
    s2 = fit_loglog(sizes, t2s).slope
    text = format_rows(["tuples", "||D||", "s=1 ms", "s=2 ms"], rows)
    record("t428_scaling",
           f"Theorem 4.28 — random fixed-degree data, cold: star size 1 "
           f"slope {s1:.2f} vs star size 2 slope {s2:.2f}\n" + text)
    record_case("counting", "t428_star1/total", "total_seconds",
                [{"n": size, "value": v} for size, v in zip(sizes, t1s)])
    record_case("counting", "t428_star2/total", "total_seconds",
                [{"n": size, "value": v} for size, v in zip(sizes, t2s)])
    assert s1 < 1.5 and s2 < 1.5, text
    db = make_db(2000)
    benchmark(lambda: count_acq(STAR1, db))


def test_t428_hub_family_shows_the_star_size_exponent(benchmark):
    """Theorem 4.28's ||D||^s: on the hub family the star-size-2
    projection has Theta(||D||^2) rows, so cold star-2 counts scale
    quadratically while star-1 counts stay linear (columnar engine).

    Each sweep spans more than one decade of ||D||, so the observatory
    can pass a verdict.  Star size 1 sweeps larger databases, where its
    linear cost is well above the fixed cost of a cold count; over
    n = 150-2400 the two are close and its slope read 0.36."""
    def sweep(q, sizes, answers):
        rows, times, db_sizes = [], [], []
        for n in sizes:
            elapsed, count = best_cold(lambda: hub_db(n),
                                       lambda db: count_acq(q, db))
            assert count == answers(n)
            size = hub_db(n).size()
            rows.append((n, size, count, elapsed * 1e3))
            times.append(elapsed)
            db_sizes.append(size)
        return rows, times, db_sizes, fit_loglog(db_sizes, times).slope

    with use_engine("columnar"):
        warm_up()
        rows1, t1s, sizes1, s1 = sweep(
            STAR1, (8000, 16000, 32000, 64000, 128000), lambda n: n)
        rows2, t2s, sizes2, s2 = sweep(
            STAR2, (200, 400, 800, 1600, 2400), lambda n: n * n)
        header = ["n", "||D||", "count", "ms"]
        text = (f"star size 1 (slope {s1:.2f})\n"
                + format_rows(header, rows1)
                + f"\nstar size 2 (slope {s2:.2f})\n"
                + format_rows(header, rows2))
        record("t428_hub_scaling",
               "Theorem 4.28 — hub family, cold counts, columnar\n" + text)
        record_case("counting", "t428_hub_star1/total", "total_seconds",
                    [{"n": size, "value": v, "count": r[2]}
                     for size, v, r in zip(sizes1, t1s, rows1)],
                    expectation="linear")
        record_case("counting", "t428_hub_star2/total", "total_seconds",
                    [{"n": size, "value": v, "count": r[2]}
                     for size, v, r in zip(sizes2, t2s, rows2)],
                    expectation="quadratic")
        assert s1 <= 1.3 and s2 >= 1.7, text
        db = hub_db(600)
        benchmark(lambda: count_acq(STAR2, db))


def endpoint_pair_count(db):
    """|{(x, w) : R(x, y), S(y, z), T(z, w)}| in plain Python."""
    after_t = defaultdict(set)
    for z, w in db.relation("T"):
        after_t[z].add(w)
    after_s = defaultdict(set)
    for y, z in db.relation("S"):
        after_s[y] |= after_t.get(z, set())
    after_r = defaultdict(set)
    for x, y in db.relation("R"):
        after_r[x] |= after_s.get(y, set())
    return sum(len(ws) for ws in after_r.values())


def test_t428_path_endpoints_cold_100k(benchmark):
    """Cold count of ``Q(x, w) :- R(x, y), S(y, z), T(z, w)`` at 100k
    tuples per relation (columnar).  No atom holds both x and w, and the
    atoms that hold them share no variable, so the component is joined
    along its join tree; the count is checked in plain Python."""
    q = parse_cq("Q(x, w) :- R(x, y), S(y, z), T(z, w)")
    with use_engine("columnar"):
        warm_up()
        db = make_db(100_000)
        start = time.perf_counter()
        count = count_acq(q, db)
        elapsed = time.perf_counter() - start
        assert count == endpoint_pair_count(db)
        text = format_rows(["tuples", "||D||", "count", "cold ms"],
                           [(100_000, db.size(), count, elapsed * 1e3)])
        record("t428_path_endpoints",
               "Theorem 4.28 — cold count of Q(x, w) :- R(x, y), S(y, z), "
               "T(z, w), columnar\n" + text)
        benchmark(lambda: count_acq(q, db))


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
