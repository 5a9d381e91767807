"""Dynamic-maintenance benchmarks: warm delta refresh vs cold rebuild.

The acceptance claim of the incremental layer: on a 100k-tuple acyclic
join, an *update+count cycle* with a 1% delta served by the
delta-propagated refresh of the Theorem 4.21 counting state must be
>= 10x faster than cold re-preprocessing — while producing the same
count.  The state is seeded by the first count after a write, so each
warm run primes it with a count, one write and a count.  The sweep also
visits 0.1% (small deltas, bigger wins) and 10%, reported but never
asserted against: random deletes mostly miss and log nothing, so about
2,500 writes per relation stay within the 4096-entry delta log, and
refreshing with them read 2.0–3.2x faster than a cold rebuild in twelve
runs on a 2-CPU host (the 1% point read 11.8–20.5x, the 0.1% point
50–69x).  The count is the only plan incremental refresh maintains;
every other plan rebuilds cold after a write, so it has no warm cycle
to measure.

Measurements are the ``dynamic`` suite, run and recorded through the
observatory's runner (the same code ``repro bench --suite dynamic``
runs), so history rows in ``benchmarks/history/dynamic.jsonl`` and the
``BENCH_dynamic.json`` snapshot look identical no matter which entry
point produced them.
"""

from _util import HISTORY_DIR, REPO_ROOT, format_rows, record, run_timestamp

from repro import obs
from repro.core.plancache import clear_plan_cache, plan_cache
from repro.core.planner import count
from repro.data import generators
from repro.logic.parser import parse_cq
from repro.obs.observatory import SUITES, run_suites, save_records

SIZE = SUITES["dynamic"].sweep
QUERY = "Q(x, z, y) :- R(x, z), S(z, y)"


def test_dynamic_refresh_parity_at_bench_scale():
    """A 1% delta served by a refresh returns the count a cold run
    returns."""
    q = parse_cq(QUERY)
    db = generators.random_database({"R": 2, "S": 2}, max(4, SIZE // 4),
                                    SIZE, seed=11)
    import random

    rng = random.Random(11)
    domain = max(4, SIZE // 4)

    def write(k):
        for _ in range(k):
            rel = db.relation(rng.choice(["R", "S"]))
            tup = (rng.randrange(domain), rng.randrange(domain))
            rel.add(tup) if rng.random() < 0.5 else rel.discard(tup)

    clear_plan_cache()
    count(q, db, engine="columnar")
    # seed the warm state: two writes that always log (a random discard
    # may miss) and leave the data as it was, then a count
    rel = db.relation("R")
    row = next(iter(rel))
    rel.discard(row)
    rel.add(row)
    count(q, db, engine="columnar")
    write(SIZE // 100)
    refreshes = plan_cache().refreshes
    with obs.capture() as tr:
        warm_count = count(q, db, engine="columnar")
    assert plan_cache().refreshes == refreshes + 1
    # a refresh of the seeded state, not a seed
    assert not [s for s in tr.spans if s.name == "delta.counter_build"]
    # a copy the cache has never seen, so no warm plan serves the cold run
    assert count(q, db.copy(), engine="columnar") == warm_count


def test_dynamic_refresh_speedup(benchmark):
    """Record the warm-vs-cold cycle curve; gate the 1% point."""
    records = run_suites(["dynamic"], run_timestamp())
    save_records(records, HISTORY_DIR, REPO_ROOT)

    rows, at_1pct = [], {}
    for rec in records:
        for pt in rec["points"]:
            rows.append([rec["case"], pt["n"], f"{pt['delta_fraction']:.3f}",
                         f"{pt['value']:.4f}", f"{pt['cold_seconds']:.4f}",
                         f"{pt['speedup_x']:.2f}x"])
            if pt["delta_fraction"] == 0.01:
                at_1pct[rec["case"]] = pt["speedup_x"]
    record("dynamic_refresh", format_rows(
        ["case", "delta_ops", "fraction", "warm_s", "cold_s", "speedup"],
        rows))

    assert at_1pct["dynamic/count_refresh"] >= 10.0, (
        f"1% count cycle {at_1pct['dynamic/count_refresh']:.2f}x < 10x")

    # one representative timed op for the pytest-benchmark table: a warm
    # 100-op update+count cycle against the primed plan cache
    q = parse_cq(QUERY)
    db = generators.random_database({"R": 2, "S": 2}, max(4, SIZE // 4),
                                    SIZE, seed=7)
    import random

    rng = random.Random(7)
    domain = max(4, SIZE // 4)

    def warm_cycle(k=100):
        for _ in range(k):
            db.relation(rng.choice(["R", "S"])).add(
                (rng.randrange(domain), rng.randrange(domain)))
        return count(q, db, engine="columnar")

    clear_plan_cache()
    count(q, db, engine="columnar")
    warm_cycle(1)                                       # seed the warm state
    benchmark(warm_cycle)
