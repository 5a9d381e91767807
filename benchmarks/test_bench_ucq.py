"""T4.13: unions of conjunctive queries via union extensions.

Equation 1's union — one non-free-connex disjunct rescued by a
free-connex provider — enumerates with flat per-answer delay, while its
hard disjunct alone (Algorithm 2) pays a growing delay on the same data.
"""

from _util import format_rows, record

from repro.data import generators
from repro.enumeration.acq_linear import LinearDelayACQEnumerator
from repro.enumeration.ucq_union import UCQEnumerator
from repro.logic.parser import parse_cq
from repro.logic.ucq import UnionOfConjunctiveQueries
from repro.obs.fitting import fit_loglog
from repro.perf.delay import measure_enumerator

SIZES = [1000, 2000, 4000, 8000]


def equation1():
    return UnionOfConjunctiveQueries([
        parse_cq("Q(x, y, w) :- R1(x, z), R2(z, y), R3(x, w)"),
        parse_cq("Q(x, z, y) :- R1(x, z), R2(z, y)"),
    ])


def make_db(n, seed=9):
    return generators.random_database({"R1": 2, "R2": 2, "R3": 2},
                                      max(4, n // 4), n, seed=seed)


def test_t413_union_flat_delay(benchmark):
    """Theorem 4.13: the union's delay stays flat across sizes."""
    ucq = equation1()
    rows = []
    medians, sizes = [], []
    for n in SIZES:
        db = make_db(n)
        profile = measure_enumerator(UCQEnumerator(ucq, db), max_outputs=800)
        rows.append((n, db.size(), profile.n_outputs,
                     profile.preprocessing_seconds * 1e3,
                     profile.median_delay * 1e6,
                     profile.percentile(0.95) * 1e6))
        medians.append(max(profile.median_delay, 1e-8))
        sizes.append(db.size())
    text = format_rows(
        ["tuples", "||D||", "outputs", "pre ms", "median us", "p95 us"], rows)
    record("t413_union", "Theorem 4.13 — union-extension enumeration\n" + text)
    assert fit_loglog(sizes, medians).slope < 0.4, text
    db = make_db(2000)
    benchmark(lambda: sum(1 for _ in UCQEnumerator(ucq, db)))


def test_t413_vs_hard_disjunct_alone(benchmark):
    """The rescue matters: phi1 alone pays Algorithm 2's growing (mean)
    delay on the same databases."""
    phi1 = parse_cq("Q(x, y, w) :- R1(x, z), R2(z, y), R3(x, w)")
    ucq = equation1()
    rows = []
    hard_means, union_means, sizes = [], [], []
    for n in SIZES:
        db = make_db(n)
        hard = measure_enumerator(LinearDelayACQEnumerator(phi1, db),
                                  max_outputs=800)
        easy = measure_enumerator(UCQEnumerator(ucq, db), max_outputs=800)
        rows.append((n, hard.mean_delay * 1e6, easy.mean_delay * 1e6))
        hard_means.append(max(hard.mean_delay, 1e-8))
        union_means.append(max(easy.mean_delay, 1e-8))
        sizes.append(db.size())
    text = format_rows(
        ["tuples", "phi1 alone mean us", "union mean us"], rows)
    record("t413_vs_alone",
           "Theorem 4.13 — hard disjunct alone vs rescued union\n" + text)
    assert fit_loglog(sizes, hard_means).slope > \
        fit_loglog(sizes, union_means).slope + 0.3, text
    db = make_db(2000)
    benchmark(lambda: sum(1 for _ in UCQEnumerator(equation1(), db)))
