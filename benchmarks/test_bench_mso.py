"""T3.11 / T3.12: MSO on bounded treewidth.

* decision and counting scale linearly in the graph size at fixed width
  (Courcelle's theorem and its counting extension);
* enumeration of set answers runs with delay bounded by the output size;
* the two-cluster example certifies the Omega(n) delta between
  consecutive set answers (why Theorem 3.12's delay is |s|-relative).
"""

import sys

from _util import format_rows, record, record_case, timed

from repro.data import generators
from repro.mso.courcelle import count_solutions, decide, optimise
from repro.mso.enumeration import enumerate_solutions, two_cluster_example
from repro.mso.properties import ColoringProperty, DominatingSetProperty, IndependentSetProperty
from repro.mso.treedecomp import adjacency_from_database, tree_decomposition
from repro.obs.fitting import fit_loglog
from repro.perf.delay import measure_stream

sys.setrecursionlimit(40000)  # nice decompositions of long paths are deep

# >1 decade of n so the observatory can pass a verdict
SIZES = [100, 200, 400, 800, 1600]


def bounded_tw_graph(n, seed=2):
    """Degree-2 random graph: a union of paths/cycles, treewidth <= 2."""
    return adjacency_from_database(
        generators.random_bounded_degree_graph(n, 2, seed=seed))


def test_t311_linear_decision_and_counting(benchmark):
    """Theorem 3.11 (+ counting ext.): linear-time DP at fixed width."""
    rows = []
    times, sizes = [], []
    for n in SIZES:
        graph = bounded_tw_graph(n)
        c3 = decide(graph, ColoringProperty(3))
        n_is = count_solutions(graph, IndependentSetProperty())
        elapsed = min(
            timed(lambda: decide(graph, ColoringProperty(3)))
            for _ in range(2))
        rows.append((n, c3, str(n_is)[:12] + ("..." if n_is > 10**12 else ""),
                     elapsed * 1e3))
        times.append(elapsed)
        sizes.append(n)
    slope = fit_loglog(sizes, times).slope
    text = format_rows(["vertices", "3-colourable", "#indep sets", "decide ms"],
                       rows)
    record("t311_courcelle",
           f"Theorem 3.11 — linear MSO decision at width <= 2 "
           f"(log-log slope {slope:.2f}).  Counting is exact too, but the\n"
           f"counts themselves have Theta(n) bits, so exact counting cannot\n"
           f"be linear on real hardware (the paper's RAM model charges unit\n"
           f"cost per arithmetic op) — see EXPERIMENTS.md.\n" + text)
    record_case("mso", "t311_courcelle/decide", "total_seconds",
                [{"n": size, "value": v}
                 for size, v in zip(sizes, times)],
                expectation="linear")
    assert slope < 1.6, text
    graph = bounded_tw_graph(400)
    benchmark(lambda: decide(graph, ColoringProperty(3)))


def test_t312_enumeration_linear_in_output(benchmark):
    """Theorem 3.12: per-solution delay scales with the instance (solution
    size), not with the number of solutions."""
    rows = []
    delays, sizes = [], []
    for n in (40, 80, 160):
        graph = bounded_tw_graph(n, seed=4)
        profile = measure_stream(
            lambda: iter(enumerate_solutions(graph, IndependentSetProperty())),
            max_outputs=400)
        rows.append((n, profile.n_outputs, profile.median_delay * 1e6,
                     profile.median_delay * 1e6 / n))
        delays.append(profile.median_delay)
        sizes.append(n)
    slope = fit_loglog(sizes, delays).slope
    text = format_rows(["vertices", "outputs", "median delay us",
                        "delay/vertex us"], rows)
    record("t312_enumeration",
           f"Theorem 3.12 — MSO enumeration, delay linear in output size "
           f"(delay-vs-n slope {slope:.2f}; ~1 = linear in |s|)\n" + text)
    record_case("mso", "t312_enumeration/delay", "delay_p50_seconds",
                [{"n": size, "value": v, "outputs": r[1]}
                 for size, v, r in zip(sizes, delays, rows)])
    assert 0.3 < slope < 2.0, text  # grows with n, roughly linearly
    graph = bounded_tw_graph(60, seed=4)

    def consume():
        count = 0
        for _ in enumerate_solutions(graph, IndependentSetProperty()):
            count += 1
            if count >= 200:
                break
        return count

    benchmark(consume)


def test_t312_two_cluster_lower_bound(benchmark):
    """Section 3.3.1: the two answers are disjoint n-element sets, so any
    enumerator's delta between them is Omega(n)."""
    rows = []
    for n in (50, 100, 200):
        _db, answers = two_cluster_example(n)
        a, b = answers
        rows.append((n, len(answers), len(a ^ b)))
    text = format_rows(["n", "answers", "delta size"], rows)
    record("t312_two_cluster",
           "Section 3.3.1 — consecutive set answers differ in 2n elements\n"
           + text)
    assert all(r[2] == 2 * r[0] for r in rows)
    benchmark(lambda: two_cluster_example(100))


def test_t311_dominating_set_optimisation(benchmark):
    """The optimisation face of Courcelle: min dominating set in linear
    time at fixed width."""
    rows = []
    for n in (100, 200, 400):
        graph = bounded_tw_graph(n, seed=6)
        ds = optimise(graph, DominatingSetProperty())
        rows.append((n, ds))
    text = format_rows(["vertices", "min dominating set"], rows)
    record("t311_dominating", "Courcelle optimisation — min dominating set\n"
           + text)
    graph = bounded_tw_graph(200, seed=6)
    benchmark(lambda: optimise(graph, DominatingSetProperty()))
