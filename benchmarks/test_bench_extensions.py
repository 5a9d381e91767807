"""X1 / X2: the beyond-the-paper extensions, measured.

* X1 — dynamic free-connex views (the conclusion's "evaluation under
  updates" direction): per-update maintenance cost stays flat as the
  view grows, and is orders of magnitude below recomputation;
* X2 — random access: answer(j) stays microsecond-scale while the
  answer count grows, far below a fresh enumeration to position j.
"""

import random
import time

from _util import format_rows, record, timed

from repro.data import generators
from repro.dynamic import DynamicFreeConnexView
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.enumeration.random_access import RandomAccessEnumerator
from repro.logic.parser import parse_cq
from repro.obs.fitting import fit_loglog


def test_x1_dynamic_updates_flat(benchmark):
    """Per-update cost under a steady stream of inserts/deletes stays
    flat as the maintained state grows, and beats recomputation."""
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    rows = []
    per_update, sizes = [], []
    for n in (2000, 8000, 32000):
        rng = random.Random(3)
        view = DynamicFreeConnexView(q)
        dom = max(8, n // 8)
        # load
        for _ in range(n):
            view.insert("R", (rng.randrange(dom), rng.randrange(dom)))
            view.insert("S", (rng.randrange(dom), rng.randrange(dom)))
        # steady-state churn
        updates = 2000
        start = time.perf_counter()
        for _ in range(updates):
            rel = "R" if rng.random() < 0.5 else "S"
            tup = (rng.randrange(dom), rng.randrange(dom))
            if rng.random() < 0.5:
                view.insert(rel, tup)
            else:
                view.delete(rel, tup)
        elapsed = time.perf_counter() - start
        # recomputation baseline: one static evaluation at this size
        db = generators.random_database({"R": 2, "S": 2}, dom, n, seed=3)
        recompute = timed(lambda: list(FreeConnexEnumerator(q, db)))
        rows.append((n, elapsed / updates * 1e6, recompute * 1e3,
                     view.count_answers()))
        per_update.append(elapsed / updates)
        sizes.append(n)
    text = format_rows(["base tuples", "us/update", "recompute ms", "|Q(D)|"],
                       rows)
    slope = fit_loglog(sizes, per_update).slope
    record("x1_dynamic",
           f"Extension X1 — dynamic view updates (per-update slope "
           f"{slope:.2f}; recompute grows linearly)\n" + text)
    assert slope < 0.5, text
    # a single update is >100x cheaper than recomputation at the top size
    assert per_update[-1] * 100 < rows[-1][2] / 1e3, text
    view = DynamicFreeConnexView(q)
    rng = random.Random(0)

    def churn():
        for _ in range(200):
            view.insert("R", (rng.randrange(50), rng.randrange(50)))
            view.insert("S", (rng.randrange(50), rng.randrange(50)))

    benchmark(churn)


def test_x2_random_access_logarithmic(benchmark):
    """answer(j) cost stays flat while the database (and answer set)
    grows — random access without materialisation."""
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    rows = []
    costs, sizes = [], []
    for n in (2000, 8000, 32000):
        db = generators.random_database({"R": 2, "S": 2}, max(8, n // 8), n,
                                        seed=5)
        ra = RandomAccessEnumerator(q, db)
        count = ra.count()
        start = time.perf_counter()
        probes = 2000
        for i in range(probes):
            ra.answer((i * 2654435761) % count)
        per_access = (time.perf_counter() - start) / probes
        rows.append((n, count, per_access * 1e6))
        costs.append(per_access)
        sizes.append(n)
    text = format_rows(["tuples", "|Q(D)|", "us/answer(j)"], rows)
    slope = fit_loglog(sizes, costs).slope
    record("x2_random_access",
           f"Extension X2 — random access answer(j) (slope {slope:.2f})\n"
           + text)
    assert slope < 0.5, text
    db = generators.random_database({"R": 2, "S": 2}, 500, 8000, seed=5)
    ra = RandomAccessEnumerator(q, db)
    n_answers = ra.count()
    benchmark(lambda: [ra.answer(j % n_answers) for j in range(100)])
