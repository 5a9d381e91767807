"""T4.8 / T4.9 / T4.15: the conditional lower bounds, run forward.

* enumerating the (non-free-connex) Example 4.7 query on encoded
  instances computes Boolean matrix products — its total time tracks the
  cubic-ish BMM baselines while free-connex work on the same data stays
  linear (the Theorem 4.8 crossover);
* the cyclic triangle query costs superlinear preprocessing where the
  acyclic path query on the same graph is linear (Theorem 4.9's shape);
* the k-clique ACQ< instance: evaluation cost explodes with k while the
  instance size grows only polynomially (Theorem 4.15 / W[1]-hardness).
"""

import time

from _util import format_rows, record, record_case, timed

from repro.data import generators
from repro.enumeration.acq_linear import LinearDelayACQEnumerator
from repro.eval.naive import cq_is_satisfiable_naive, evaluate_cq_naive
from repro.eval.yannakakis import acyclic_answers, yannakakis_boolean
from repro.logic.parser import parse_cq
from repro.obs.fitting import fit_loglog
from repro.reductions.bmm import (
    example_47_database,
    example_47_query,
    multiply_boolean_naive,
    multiply_boolean_numpy,
    product_from_example_47_answers,
)
from repro.reductions.clique_inequality import (
    clique_acq_lt_instance,
    has_k_clique_bruteforce,
)


def test_t48_bmm_reduction_crossover(benchmark):
    """Theorem 4.8: the non-free-connex query's evaluation IS matrix
    multiplication; its per-||D|| cost grows with n while the free-connex
    control query stays linear."""
    q47 = example_47_query()
    control = parse_cq("C(x1, x3) :- S(x1, x1, x3)")  # free-connex control
    rows = []
    hard_per_unit, easy_per_unit, sizes = [], [], []
    for n in (40, 80, 160):
        a = generators.boolean_matrix(n, 0.25, seed=1)
        b = generators.boolean_matrix(n, 0.25, seed=2)
        db = example_47_database(a, b)
        t_hard = min(timed(lambda: acyclic_answers(q47, db)) for _ in range(2))
        t_easy = min(timed(lambda: acyclic_answers(control, db)) for _ in range(2))
        t_numpy = min(timed(lambda: multiply_boolean_numpy(a, b)) for _ in range(2))
        answers = acyclic_answers(q47, db)
        assert product_from_example_47_answers(answers, n) == \
            multiply_boolean_naive(a, b)
        rows.append((n, db.size(), t_hard * 1e3, t_easy * 1e3, t_numpy * 1e3))
        hard_per_unit.append(t_hard / db.size())
        easy_per_unit.append(t_easy / db.size())
        sizes.append(db.size())
    text = format_rows(
        ["n", "||D||", "phi_4.7 ms", "free-connex ms", "numpy BMM ms"], rows)
    record("t48_bmm", "Theorem 4.8 — non-free-connex ACQ computes BMM\n" + text)
    record_case("lower_bounds", "t48_bmm/phi47", "total_seconds",
                [{"n": size, "value": r[2] / 1e3}
                 for size, r in zip(sizes, rows)],
                expectation="superlinear")
    record_case("lower_bounds", "t48_bmm/free_connex_control",
                "total_seconds",
                [{"n": size, "value": r[3] / 1e3}
                 for size, r in zip(sizes, rows)])
    # the hard query's per-unit cost grows; the easy one's does not
    assert fit_loglog(sizes, hard_per_unit).slope > \
        fit_loglog(sizes, easy_per_unit).slope + 0.2, text
    a = generators.boolean_matrix(60, 0.25, seed=1)
    b = generators.boolean_matrix(60, 0.25, seed=2)
    db = example_47_database(a, b)
    benchmark(lambda: acyclic_answers(q47, db))


def test_t49_cyclic_vs_acyclic(benchmark):
    """Theorem 4.9: deciding/enumerating the triangle (cyclic) costs
    superlinear where the acyclic path query stays linear."""
    triangle = parse_cq("Q() :- E(x, y), E(y, z), E(z, x)")
    path = parse_cq("Q() :- E(x, y), E(y, z)")
    rows = []
    tri_pu, path_pu, sizes = [], [], []
    for n in (40, 80, 160):
        # triangle-free-ish dense bipartite-like graph: worst case for
        # triangle detection (no early exit)
        db = generators.graph_database(
            [(("a", i), ("b", j)) for i in range(n) for j in range(n)
             if (i + j) % 3], symmetric=True)
        t_tri = min(timed(lambda: cq_is_satisfiable_naive(triangle, db))
                    for _ in range(2))
        t_path = min(timed(lambda: yannakakis_boolean(path, db))
                     for _ in range(2))
        rows.append((n, db.size(), t_tri * 1e3, t_path * 1e3))
        tri_pu.append(t_tri / db.size())
        path_pu.append(t_path / db.size())
        sizes.append(db.size())
    text = format_rows(["n", "||D||", "triangle ms", "acyclic path ms"], rows)
    record("t49_cyclic", "Theorem 4.9 — cyclic query cost vs acyclic\n" + text)
    record_case("lower_bounds", "t49_triangle/naive", "total_seconds",
                [{"n": size, "value": r[2] / 1e3}
                 for size, r in zip(sizes, rows)],
                expectation="superlinear")
    record_case("lower_bounds", "t49_path/yannakakis_boolean",
                "total_seconds",
                [{"n": size, "value": r[3] / 1e3}
                 for size, r in zip(sizes, rows)],
                expectation="linear")
    assert fit_loglog(sizes, tri_pu).slope > \
        fit_loglog(sizes, path_pu).slope + 0.15, text
    db = generators.graph_database(
        [(("a", i), ("b", j)) for i in range(60) for j in range(60)
         if (i + j) % 3])
    benchmark(lambda: cq_is_satisfiable_naive(triangle, db))


def test_t415_clique_parameter_explosion(benchmark):
    """Theorem 4.15: the ACQ< encoding decides k-clique; time explodes in
    k (the W[1] parameter) while the database only grows polynomially."""
    import random

    rng = random.Random(5)
    n = 7
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.75]
    rows = []
    times = []
    for k in (2, 3, 4):
        query, db = clique_acq_lt_instance(edges, n, k)
        start = time.perf_counter()
        got = cq_is_satisfiable_naive(query, db)
        elapsed = time.perf_counter() - start
        assert got == has_k_clique_bruteforce(edges, n, k), k
        rows.append((k, len(query.atoms), db.size(), got, elapsed * 1e3))
        times.append(elapsed)
    text = format_rows(["k", "atoms", "||D||", "has clique", "decide ms"], rows)
    record("t415_clique_lt",
           "Theorem 4.15 — k-clique via ACQ<: time explodes in k\n" + text)
    # the sweep axis is the W[1] parameter k, carried per point; ``n`` is
    # the instance size so the slope captures time-vs-||D|| blow-up
    record_case("lower_bounds", "t415_clique/decide", "total_seconds",
                [{"n": r[2], "value": v, "k": r[0]}
                 for r, v in zip(rows, times)])
    assert times[-1] > 3 * times[0], text
    query, db = clique_acq_lt_instance(edges, n, 3)
    benchmark(lambda: cq_is_satisfiable_naive(query, db))
