"""T4.31: beta-acyclic NCQ decided quasi-linearly by nest-point
Davis-Putnam; cost comparisons against bad orders and against the
non-beta-acyclic fallback."""

from _util import format_rows, record, record_case, timed

from repro.csp.cnf import ncq_to_clauses
from repro.csp.davis_putnam import DPStats, davis_putnam
from repro.csp.ncq_solver import decide_ncq
from repro.data import generators
from repro.hypergraph.acyclicity import nest_point_elimination_order
from repro.logic.atoms import Atom
from repro.logic.ncq import NegativeConjunctiveQuery
from repro.obs.fitting import fit_loglog
from repro.data.database import Database
from repro.data.relation import Relation


def chain_instance(n):
    """A beta-acyclic chain CNF (prefix-free scopes) as an NCQ."""
    cnf = [[-i, i + 1] for i in range(1, n)] + [[1]]
    from repro.csp.cnf import cnf_to_ncq

    return cnf_to_ncq(cnf, n)


def test_t431_quasi_linear_scaling(benchmark):
    """Deciding growing beta-acyclic chains stays near-linear."""
    rows = []
    times, sizes = [], []
    # >1 decade of n so the observatory can pass a verdict
    for n in (200, 400, 800, 1600, 3200):
        ncq, db = chain_instance(n)
        assert ncq.is_beta_acyclic()
        elapsed = min(timed(lambda: decide_ncq(ncq, db)) for _ in range(3))
        rows.append((n, len(ncq.atoms), elapsed * 1e3))
        times.append(elapsed)
        sizes.append(n)
    slope = fit_loglog(sizes, times).slope
    text = format_rows(["vars", "clauses", "decide ms"], rows)
    record("t431_scaling",
           f"Theorem 4.31 — beta-acyclic NCQ decision (slope {slope:.2f})\n"
           + text)
    record_case("ncq", "t431_beta_acyclic/decide", "total_seconds",
                [{"n": size, "value": v}
                 for size, v in zip(sizes, times)])
    assert slope < 1.8, text  # quasi-linear (n log^2 n-ish), not quadratic+
    ncq, db = chain_instance(800)
    benchmark(lambda: decide_ncq(ncq, db))


def test_t431_order_matters(benchmark):
    """The nest-point order keeps the resolvent count tame where an
    interleaved order produces strictly more resolvents (pigeonhole CNFs
    would blow up; even prefix chains show the gap)."""
    n = 18
    cnf = [[-j] + list(range(1, j)) for j in range(2, n + 1)] + [[n]]
    from repro.csp.cnf import cnf_to_ncq

    ncq, db = cnf_to_ncq(cnf, n)
    assert ncq.is_beta_acyclic()
    clauses, index = ncq_to_clauses(ncq, db)
    order_vars = nest_point_elimination_order(ncq.hypergraph())
    good = [index[v] for v in order_vars if v in index]
    bad = sorted(good, key=lambda v: (v % 2, -v))

    stats_good, stats_bad = DPStats(), DPStats()
    assert davis_putnam(clauses, good, stats_good) == \
        davis_putnam(clauses, bad, stats_bad)
    rows = [("nest-point", stats_good.resolvents, stats_good.peak_clauses),
            ("interleaved", stats_bad.resolvents, stats_bad.peak_clauses)]
    text = format_rows(["order", "resolvents", "peak clauses"], rows)
    record("t431_order", "Theorem 4.31 — elimination order effect\n" + text)
    assert stats_good.resolvents <= stats_bad.resolvents, text
    benchmark(lambda: davis_putnam(clauses, good))


def test_t431_beta_frontier(benchmark):
    """The dichotomy's other side: alpha-acyclified SAT instances (not
    beta-acyclic) fall back to exponential search — measured on instances
    where DP stays flat."""
    from repro.reductions.sat_ncq import cnf_as_acyclic_ncq

    rows = []
    for n in (10, 14, 18):
        cnf = generators.random_kcnf(n, 4 * n, k=3, seed=n)
        ncq, db = cnf_as_acyclic_ncq(cnf, n)
        chain_ncq, chain_db = chain_instance(n)
        t_hard = timed(lambda: decide_ncq(ncq, db))
        t_chain = timed(lambda: decide_ncq(chain_ncq, chain_db))
        rows.append((n, t_hard * 1e3, t_chain * 1e3))
    text = format_rows(["vars", "alpha-only NCQ ms", "beta-acyclic ms"], rows)
    record("t431_frontier",
           "Theorem 4.31 — the beta frontier: alpha-acyclic-but-not-beta "
           "instances cost exponentially, beta-acyclic stay flat\n" + text)
    # growth comparison: the hard column must grow much faster
    assert rows[-1][1] / max(rows[0][1], 1e-6) > \
        rows[-1][2] / max(rows[0][2], 1e-6), text
    cnf = generators.random_kcnf(12, 48, k=3, seed=1)
    ncq, db = cnf_as_acyclic_ncq(cnf, 12)
    benchmark(lambda: decide_ncq(ncq, db))
