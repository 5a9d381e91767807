#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 bench/compare.py A/*.json B/*.json

Each file holds the output of one ``bench/run.py`` run (its last line is
the result object) and is named ``<workload>.<anything>.json``; the
files of set A sit in one directory and those of set B in another.  For
every workload and metric it prints each set's median and quartiles,
their spread (quartile distance over median) and, for end-to-end
metrics, a verdict against the bound in ``BENCHMARK.json``:

* ``unresolved`` when either set's spread is wider than the bound,
  unless every run of B reads better than every run of A (``better``);
* ``worse`` or ``better`` when B's median moved by more than the bound;
* ``within`` otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(files):
    """{workload: {metric: [values]}} and {workload: failed runs}."""
    values = defaultdict(lambda: defaultdict(list))
    failed = defaultdict(int)
    for f in files:
        lines = [ln for ln in Path(f).read_text().splitlines() if ln.strip()]
        result = json.loads(lines[-1])
        workload = Path(f).name.split(".")[0]
        failed[workload] += result["failed"]
        for name, m in result["metrics"].items():
            values[workload][name].append(float(m["value"]))
    return values, failed


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def spread(xs) -> float:
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, bound, better) -> str:
    sign = 1 if better == "lower" else -1
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        return "unresolved"
    ma, mb = statistics.median(a), statistics.median(b)
    change = sign * (mb - ma) / abs(ma) if ma else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def split_sets(paths):
    """Group the files by directory: exactly two groups, A then B."""
    groups = defaultdict(list)
    for p in paths:
        groups[str(Path(p).parent)].append(p)
    if len(groups) != 2:
        raise SystemExit("compare: give the files of exactly two "
                         "directories, set A first")
    return list(groups.values())


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    files_a, files_b = split_sets(argv)
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    (a, fail_a), (b, fail_b) = load_set(files_a), load_set(files_b)
    print(f"{'workload':16} {'metric':28} {'A median [q1, q3]':>34} "
          f"{'spread':>7} {'B median [q1, q3]':>34} {'spread':>7} "
          f"{'change':>8}  verdict")
    for workload in sorted(set(a) | set(b)):
        for metric in sorted(set(a[workload]) | set(b[workload])):
            xa, xb = a[workload].get(metric), b[workload].get(metric)
            if not xa or not xb:
                print(f"{workload:16} {metric:28} missing in "
                      f"{'A' if not xa else 'B'}")
                continue
            qa, qb = quartiles(xa), quartiles(xb)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            bound, better = bounds.get(metric, (None, None))
            v = verdict(xa, xb, bound, better) if bound is not None else "-"
            print(f"{workload:16} {metric:28} "
                  f"{qa[1]:12.4g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
                  f"{spread(xa):7.1%} "
                  f"{qb[1]:12.4g} [{qb[0]:9.4g}, {qb[2]:9.4g}] "
                  f"{spread(xb):7.1%} {change:+8.1%}  {v}")
        print(f"{workload:16} {'failed requests':28} A {fail_a[workload]}, "
              f"B {fail_b[workload]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
