"""T3.1 / T3.2 / T3.9-3.10: FO on sparse structures.

* bounded degree: model checking and counting scale linearly in ||D||,
  enumeration delay stays flat (Theorems 3.1-3.2);
* low degree (clique + 2^k independents): decision stays pseudo-linear
  and the delay stays flat while the degree grows like log |V|
  (Theorems 3.9-3.10).
"""

from _util import format_rows, record, timed

from repro.data import generators
from repro.enumeration.bounded_degree import (
    BoundedDegreeEnumerator,
    Pattern,
    count_pattern,
    model_check_pattern,
)
from repro.enumeration.low_degree import DegreeProfile, LowDegreeEnumerator
from repro.logic.atoms import Atom, Comparison
from repro.logic.terms import Variable
from repro.obs.fitting import fit_loglog
from repro.perf.delay import measure_enumerator

x, y, z = Variable("x"), Variable("y"), Variable("z")

PATTERN = Pattern(
    head=(x, z),
    atoms=(Atom("E", [x, y]), Atom("E", [y, z])),
    negated=(Atom("E", [x, z]),),
    disequalities=(Comparison(x, "!=", z),),
)

SIZES = [2000, 4000, 8000, 16000]


def test_t31_linear_model_checking(benchmark):
    """Theorem 3.1: decision time linear in ||D|| on bounded degree."""
    rows = []
    times = []
    sizes = []
    for n in SIZES:
        db = generators.random_bounded_degree_graph(n, 4, seed=3)
        elapsed = min(timed(lambda: model_check_pattern(PATTERN, db))
                      for _ in range(3))
        rows.append((n, db.size(), elapsed * 1e3))
        times.append(elapsed)
        sizes.append(db.size())
    slope = fit_loglog(sizes, times).slope
    text = format_rows(["vertices", "||D||", "decide ms"], rows)
    record("t31_model_checking",
           f"Theorem 3.1 — linear FO decision on bounded degree "
           f"(log-log slope {slope:.2f})\n" + text)
    assert slope < 1.45, text
    db = generators.random_bounded_degree_graph(4000, 4, seed=3)
    benchmark(lambda: model_check_pattern(PATTERN, db))


def test_t32_linear_counting(benchmark):
    """Theorem 3.2 (counting): one linear pass, exact counts."""
    rows = []
    times, sizes = [], []
    for n in SIZES:
        db = generators.random_bounded_degree_graph(n, 4, seed=3)
        count = count_pattern(PATTERN, db)
        elapsed = min(timed(lambda: count_pattern(PATTERN, db)) for _ in range(3))
        rows.append((n, db.size(), count, elapsed * 1e3))
        times.append(elapsed)
        sizes.append(db.size())
    slope = fit_loglog(sizes, times).slope
    text = format_rows(["vertices", "||D||", "count", "count ms"], rows)
    record("t32_counting",
           f"Theorem 3.2 — linear FO counting on bounded degree "
           f"(log-log slope {slope:.2f})\n" + text)
    assert slope < 1.45, text
    db = generators.random_bounded_degree_graph(4000, 4, seed=3)
    benchmark(lambda: count_pattern(PATTERN, db))


def test_t32_constant_delay_enumeration(benchmark):
    """Theorem 3.2 (enumeration): flat delay across a 8x size sweep."""
    rows = []
    p95s, sizes = [], []
    for n in SIZES:
        db = generators.random_bounded_degree_graph(n, 4, seed=3)
        profile = measure_enumerator(BoundedDegreeEnumerator(PATTERN, db),
                                     max_outputs=1500)
        rows.append((n, db.size(), profile.n_outputs,
                     profile.median_delay * 1e6,
                     profile.percentile(0.95) * 1e6))
        p95s.append(profile.percentile(0.95))
        sizes.append(db.size())
    slope = fit_loglog(sizes, p95s).slope
    text = format_rows(["vertices", "||D||", "outputs", "median us", "p95 us"],
                       rows)
    record("t32_enumeration",
           f"Theorem 3.2 — constant-delay FO enumeration "
           f"(p95 log-log slope {slope:.2f})\n" + text)
    assert slope < 0.4, text
    db = generators.random_bounded_degree_graph(4000, 4, seed=3)
    benchmark(lambda: sum(1 for _ in BoundedDegreeEnumerator(PATTERN, db)))


def test_t39_t310_low_degree(benchmark):
    """Theorems 3.9/3.10: on the clique + 2^k family, decision time per
    ||D|| unit stays near-flat and the enumeration delay flat, while the
    degree grows (log n)."""
    two_hop = Pattern(head=(x, z), atoms=(Atom("E", [x, y]), Atom("E", [y, z])))
    rows = []
    per_unit = []
    sizes = []
    for k in (8, 10, 12, 14):
        db = generators.clique_plus_independent(k)
        profile = DegreeProfile.of(db)
        elapsed = min(timed(lambda: model_check_pattern(two_hop, db))
                      for _ in range(3))
        delay = measure_enumerator(LowDegreeEnumerator(two_hop, db),
                                   max_outputs=500)
        rows.append((k, profile.size, profile.degree,
                     round(profile.epsilon_witness, 3), elapsed * 1e3,
                     delay.median_delay * 1e6))
        per_unit.append(elapsed / db.size())
        sizes.append(db.size())
    text = format_rows(
        ["k", "|V|", "degree", "eps", "decide ms", "median delay us"], rows)
    record("t39_low_degree",
           "Theorems 3.9/3.10 — low-degree pseudo-linear decision, "
           "flat delay\n" + text)
    # pseudo-linear: per-||D||-unit cost must grow sublinearly
    slope = fit_loglog(sizes, per_unit).slope
    assert slope < 0.5, text
    db = generators.clique_plus_independent(12)
    benchmark(lambda: model_check_pattern(two_hop, db))
