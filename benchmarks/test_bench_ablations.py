"""A1-A3: ablations of the design choices DESIGN.md calls out.

* A1 — free-connex enumeration WITH vs WITHOUT the full-reducer pass:
  dangling tuples cause dead-end stalls (delay spikes) when the semijoin
  filtering is skipped;
* A2 — the star-size counting algorithm vs naive materialise-and-count;
* A3 — union-extension UCQ enumeration vs materialise-and-deduplicate.
"""

from _util import best_cold, format_rows, record

from repro.counting.acq_count import count_acq, count_cq_naive
from repro.data import generators
from repro.data.database import Database
from repro.data.relation import Relation
from repro.enumeration.full_acyclic import FullJoinEnumerator
from repro.enumeration.ucq_union import MaterialisedUnionEnumerator, UCQEnumerator
from repro.eval.join import VarRelation
from repro.logic.parser import parse_cq
from repro.logic.terms import Variable
from repro.logic.ucq import UnionOfConjunctiveQueries
from repro.perf.delay import measure_enumerator


def test_a1_reducer_ablation(benchmark):
    """A1: skip the full reducer on a dangling-heavy instance — the
    unreduced enumerator's worst-case delay spikes while the reduced one
    stays flat.  (With reduce=False and dangling data the nested loops
    stall on dead probes; both must agree on the answers.)"""
    x, y, z, w = (Variable(c) for c in "xyzw")
    m, n = 200, 300
    r1 = VarRelation((x, y))     # many x-matches under the hub y = "b"
    r2 = VarRelation((y, z))     # the chain's middle: mostly dead z values
    r3 = VarRelation((z, w))     # only the live z continues
    for j in range(m):
        r1.add((("a", j), "b"))
    for i in range(n):
        r2.add(("b", ("dead", i)))
    r2.add(("b", "live"))
    for k in range(20):
        r3.add(("live", k))

    def fresh():
        return [r1.copy(), r2.copy(), r3.copy()]

    with_reduce = measure_enumerator(
        FullJoinEnumerator(fresh(), (x, y, z, w), reduce=True))
    without = measure_enumerator(
        FullJoinEnumerator(fresh(), (x, y, z, w), reduce=False))
    assert with_reduce.n_outputs == without.n_outputs == m * 20
    rows = [
        ("with full reducer", with_reduce.n_outputs,
         with_reduce.median_delay * 1e6, with_reduce.max_delay * 1e6),
        ("without (ablated)", without.n_outputs,
         without.median_delay * 1e6, without.max_delay * 1e6),
    ]
    text = format_rows(["variant", "outputs", "median us", "max us"], rows)
    record("a1_reducer", "A1 — full reducer ablation: dangling middle "
           "tuples cause dead-end stalls without the semijoin pass\n" + text)
    assert without.max_delay > 3 * with_reduce.max_delay, text
    benchmark(lambda: sum(1 for _ in FullJoinEnumerator(
        fresh(), (x, y, z, w), reduce=True)))


def test_a2_counting_ablation(benchmark):
    """A2: the Theorem 4.28 counting engine vs naive materialisation on a
    projection-heavy query (few answers, many witnesses)."""
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")

    def build(n):
        return generators.random_database({"R": 2, "S": 2}, 40, n, seed=13)

    # the first count in a process pays a one-time set-up
    count_acq(q, build(500))
    rows = []
    for n in (2000, 8000):
        # cold on both sides: a fresh database per timing, so the plan
        # cache never serves the star-size count
        fast, count = best_cold(lambda: build(n), lambda db: count_acq(q, db))
        naive, expect = best_cold(lambda: build(n),
                                  lambda db: count_cq_naive(q, db))
        assert count == expect
        rows.append((n, fast * 1e3, naive * 1e3, naive / max(fast, 1e-9)))
    text = format_rows(["tuples", "star-size ms", "naive ms", "speedup"], rows)
    record("a2_counting", "A2 — cold star-size counting vs naive\n" + text)
    assert rows[-1][3] > 1.0, text  # the engine wins on the bigger instance
    db = build(4000)
    benchmark(lambda: count_acq(q, db))


def test_a3_union_ablation(benchmark):
    """A3: time-to-first-k-answers on an output-heavy union — the
    streaming enumerator's preprocessing is input-sized while the
    materialise-and-dedup baseline pays for the whole (quadratic-sized)
    union before emitting anything."""
    def hub_db(m):
        # R1 = m sources to one hub, R2 = hub to m sinks: the union's
        # output is Theta(m^2) while ||D|| is Theta(m)
        r1 = Relation("R1", 2, [((("s", i)), "hub") for i in range(m)])
        r2 = Relation("R2", 2, [("hub", ("t", j)) for j in range(m)])
        return Database([r1, r2])

    ucq = UnionOfConjunctiveQueries([
        parse_cq("Q(x, z, y) :- R1(x, z), R2(z, y)"),   # quantifier-free
        parse_cq("Q(x, z, y) :- R2(z, y), R1(x, z)"),
    ])
    rows = []
    for m in (150, 400):
        db = hub_db(m)
        streaming = measure_enumerator(UCQEnumerator(ucq, db), max_outputs=100)
        materialised = measure_enumerator(
            MaterialisedUnionEnumerator(ucq, db), max_outputs=100)
        t_stream = streaming.preprocessing_seconds + sum(
            streaming.delays_seconds)
        t_mat = materialised.preprocessing_seconds + sum(
            materialised.delays_seconds)
        rows.append((m, m * m, t_stream * 1e3, t_mat * 1e3))
    text = format_rows(["m", "|union|", "streaming first-100 ms",
                        "materialised first-100 ms"], rows)
    record("a3_union", "A3 — streaming union enumeration vs materialisation "
           "(time to first 100 answers)\n" + text)
    assert rows[-1][2] < rows[-1][3], text
    db = hub_db(200)
    benchmark(lambda: sum(1 for _, __ in zip(UCQEnumerator(ucq, db),
                                             range(100))))
