"""T5.3 / T5.4 / T5.5: the prefix classes.

* #Sigma_0 exact counting stays polynomial while the counts explode
  (Theorem 5.3's bottom level);
* the Karp-Luby FPRAS meets Definition 5.4's error bound with runtime
  polynomial in 1/epsilon (Section 5.1);
* the Gray-code enumerator's per-solution work is constant (one set edit)
  while solutions are whole sets (Theorem 5.5).
"""

import time

from _util import format_rows, record, timed

from repro.counting.approx import (
    exact_dnf_count_inclusion_exclusion,
    karp_luby_dnf,
)
from repro.counting.spectrum import count_sigma0
from repro.data import generators
from repro.data.database import Database
from repro.data.relation import Relation
from repro.enumeration.gray import Sigma0SOEnumerator
from repro.logic.fo import And, Not, RelAtom, SOAtom, SecondOrderVariable
from repro.logic.terms import Constant, Variable
from repro.obs.fitting import fit_loglog


def sigma0_formula():
    X = SecondOrderVariable("X", 1)
    x = Variable("x")
    return And(RelAtom("P", [x]), SOAtom(X, [x]),
               Not(SOAtom(X, [Constant(0)]))), X


def test_t53_sigma0_polynomial(benchmark):
    """Theorem 5.3: #Sigma_0^rel counting is polynomial even as the counts
    reach 2^(n^k)."""
    formula, _X = sigma0_formula()
    rows = []
    times, sizes = [], []
    for n in (20, 40, 80, 160):
        rel = Relation("P", 1, [(i,) for i in range(1, n // 2)])
        db = Database([rel], domain=range(n))
        count = count_sigma0(formula, db)
        elapsed = min(timed(lambda: count_sigma0(formula, db)) for _ in range(3))
        rows.append((n, count.bit_length(), elapsed * 1e3))
        times.append(elapsed)
        sizes.append(n)
    slope = fit_loglog(sizes, times).slope
    text = format_rows(["|Dom|", "count bits", "ms"], rows)
    record("t53_sigma0",
           f"Theorem 5.3 — #Sigma_0 exact counting stays polynomial "
           f"(slope {slope:.2f}) while counts have Theta(n) bits\n" + text)
    assert slope < 2.6, text
    rel = Relation("P", 1, [(i,) for i in range(1, 40)])
    db = Database([rel], domain=range(80))
    benchmark(lambda: count_sigma0(formula, db))


def test_t54_fpras_error_and_cost(benchmark):
    """Definition 5.4: error within epsilon (with margin), runtime growing
    ~1/eps^2."""
    terms = generators.random_kdnf(14, 10, k=3, seed=3)
    exact = exact_dnf_count_inclusion_exclusion(terms, 14)
    rows = []
    times = []
    for eps in (0.4, 0.2, 0.1):
        start = time.perf_counter()
        est = karp_luby_dnf(terms, 14, epsilon=eps, seed=5)
        elapsed = time.perf_counter() - start
        rel_err = abs(est - exact) / exact
        rows.append((eps, exact, round(est), round(rel_err, 4), elapsed * 1e3))
        times.append(elapsed)
        assert rel_err <= 2 * eps, (eps, rel_err)  # margin over the 3/4 bound
    text = format_rows(["epsilon", "exact", "estimate", "rel err", "ms"], rows)
    record("t54_fpras", "Definition 5.4 — Karp-Luby FPRAS on #DNF\n" + text)
    assert times[-1] > times[0], text  # smaller eps costs more
    benchmark(lambda: karp_luby_dnf(terms, 14, epsilon=0.3, seed=7))


def test_t55_gray_delta_constant(benchmark):
    """Theorem 5.5: Sigma_0 set answers via Gray code — at most one tape
    edit between consecutive solutions, independent of the universe."""
    formula, X = sigma0_formula()
    rows = []
    for n in (8, 10, 12):
        rel = Relation("P", 1, [(1,), (2,)])
        db = Database([rel], domain=range(n))
        enum = Sigma0SOEnumerator(formula, db,
                                  universe=[(i,) for i in range(n)])
        edits = 0
        max_edits = 0
        emits = 0
        start = time.perf_counter()
        for delta in enum.deltas():
            if delta.op == "emit":
                emits += 1
                max_edits = max(max_edits, edits)
                edits = 0
            elif delta.op in ("add", "remove"):
                edits += 1
            if emits >= 5000:
                break
        elapsed = time.perf_counter() - start
        rows.append((n, emits, max_edits, elapsed / max(emits, 1) * 1e6))
        assert max_edits <= 1
    text = format_rows(["universe", "solutions", "max edits/solution",
                        "us/solution"], rows)
    record("t55_gray",
           "Theorem 5.5 — delta-constant delay Gray-code enumeration\n" + text)
    rel = Relation("P", 1, [(1,), (2,)])
    db = Database([rel], domain=range(10))

    def consume():
        enum = Sigma0SOEnumerator(formula, db,
                                  universe=[(i,) for i in range(10)])
        count = 0
        for delta in enum.deltas():
            if delta.op == "emit":
                count += 1
                if count >= 2000:
                    break
        return count

    benchmark(consume)
