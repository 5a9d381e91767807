"""The complexity observatory: canonical benchmark records, history, and
the regression gate.

* **one schema** (:data:`SCHEMA`): a *record* is one benchmark case —
  a size sweep of one metric — with the full delay statistics
  (p50/p95/p99/p99.9), preprocessing times, throughput, and
  provenance (git sha, runner-supplied timestamp, python/numpy versions,
  machine fingerprint, engine, block size, timer overhead).  The
  recorder *rejects* payloads that do not validate, so ad-hoc dicts can
  no longer leak into the BENCH files;
* **history**: every run appends its records to
  ``benchmarks/history/<suite>.jsonl`` (one JSON object per line), so
  the benchmark trajectory of the repository is a first-class artifact
  that CI can archive;
* **verdicts**: each record carries the log-log slope fit with CI and
  the categorical verdict (:mod:`repro.obs.fitting`) next to the
  *expected* verdict derived from :mod:`repro.core.classify`, so a
  wrong-shape measurement is an observable, not a human squinting at
  numbers;
* **regression gate**: :meth:`Observatory.regressions` compares each
  case's latest headline measurement against a rolling baseline
  (median of the last N prior runs on the same machine, with a noise
  band widened by the baseline's own dispersion) and flags
  regressions; ``repro bench`` surfaces the flags of the cases it ran
  and can turn them into a nonzero exit code.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.obs.fitting import (
    expected_verdict,
    fit_loglog,
    verdict_from_fit,
    verdict_matches,
)

#: schema identifier stamped on every record
SCHEMA = "repro-bench/1"

#: provenance keys every record must carry
PROVENANCE_KEYS = ("git_sha", "timestamp", "python", "numpy", "platform",
                   "machine", "hostname", "engine", "block_size",
                   "timer_overhead_ns")

#: rolling-baseline depth and minimum relative noise band
BASELINE_N = 5
MIN_BAND = 0.30


class SchemaError(ValueError):
    """A benchmark payload does not conform to :data:`SCHEMA`."""


# ----------------------------------------------------------- provenance


def collect_provenance(timestamp: str) -> Dict[str, Any]:
    """Assemble the provenance block for a run, naming the process-wide
    engine and the block size B.

    ``timestamp`` is passed in by the runner (the CLI or the benchmark
    process) rather than sampled here, so one invocation stamps all its
    records identically.
    """
    import platform as _platform

    from repro.engine import get_engine
    from repro.engine.enumerate import DEFAULT_BLOCK_SIZE
    from repro.perf.delay import timer_overhead_ns

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is baked into the image
        numpy_version = None
    # cpu_count is additive (not in PROVENANCE_KEYS): records without
    # it stay schema-valid
    return {
        "git_sha": sha,
        "timestamp": timestamp,
        "python": _platform.python_version(),
        "numpy": numpy_version,
        "platform": f"{_platform.system()}-{_platform.machine()}",
        "machine": f"{os.cpu_count()}cpu-{sys.implementation.name}",
        "hostname": _platform.node() or "unknown",
        "engine": get_engine().name,
        "block_size": DEFAULT_BLOCK_SIZE,
        "timer_overhead_ns": timer_overhead_ns(),
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------- the record


def make_record(suite: str, case: str, metric: str,
                points: Sequence[Dict[str, Any]],
                expectation: Optional[str] = None,
                provenance: Optional[Dict[str, Any]] = None,
                timestamp: Optional[str] = None,
                fit: bool = True,
                **extra: Any) -> Dict[str, Any]:
    """Build (and validate) one canonical benchmark record.

    ``points`` is the size sweep: each point needs a numeric ``n`` (the
    instance size, typically ``||D||``) and ``value`` (the primary
    metric named by ``metric``); any further per-point statistics
    (delay percentiles, preprocessing, throughput) ride along.  The
    log-log fit and verdict are computed here so every stored record is
    self-interpreting.

    Pass ``fit=False`` when ``n`` is *not* an instance size (e.g. the
    dynamic suite's delta sizes): a log-log slope over such an axis
    is not a scaling law, so the record stores no fit and an
    ``inconclusive`` verdict instead of a number that invites
    misreading.
    """
    if provenance is None:
        if timestamp is None:
            raise SchemaError(
                "make_record needs either a provenance dict or the "
                "runner's timestamp to collect one")
        provenance = collect_provenance(timestamp)
    record: Dict[str, Any] = {
        "schema": SCHEMA,
        "suite": suite,
        "case": case,
        "metric": metric,
        "expectation": expectation,
        "points": [dict(p) for p in points],
        "provenance": provenance,
    }
    record.update(extra)
    sizes = [p["n"] for p in record["points"] if "n" in p]
    values = [p["value"] for p in record["points"] if "value" in p]
    if fit and len(sizes) >= 2 and len(sizes) == len(values):
        fitted = fit_loglog(sizes, values)
        record["fit"] = fitted.to_dict()
        record["verdict"] = verdict_from_fit(fitted)
    else:
        record["fit"] = None
        record["verdict"] = "inconclusive"
    record["verdict_ok"] = verdict_matches(record["verdict"], expectation)
    return validate_record(record)


def validate_record(record: Any) -> Dict[str, Any]:
    """Check a payload against the canonical schema; raises
    :class:`SchemaError` on ad-hoc dicts (the recorder refuses them)."""
    if not isinstance(record, dict):
        raise SchemaError(f"benchmark record must be a dict, "
                          f"got {type(record).__name__}")
    if record.get("schema") != SCHEMA:
        raise SchemaError(
            f"payload does not declare schema {SCHEMA!r} "
            f"(got {record.get('schema')!r}); build records with "
            f"make_record() / benchmarks/_util.py record_case()")
    for key in ("suite", "case", "metric"):
        if not isinstance(record.get(key), str) or not record[key]:
            raise SchemaError(f"record field {key!r} must be a "
                              f"non-empty string")
    points = record.get("points")
    if not isinstance(points, list) or not points:
        raise SchemaError("record needs a non-empty 'points' list")
    for point in points:
        if not isinstance(point, dict):
            raise SchemaError("each point must be a dict")
        for key in ("n", "value"):
            if not isinstance(point.get(key), (int, float)) \
                    or isinstance(point.get(key), bool):
                raise SchemaError(f"point field {key!r} must be numeric, "
                                  f"got {point.get(key)!r}")
    provenance = record.get("provenance")
    if not isinstance(provenance, dict):
        raise SchemaError("record needs a 'provenance' dict (git sha, "
                          "timestamp, machine fingerprint, ...)")
    missing = [key for key in PROVENANCE_KEYS if key not in provenance]
    if missing:
        raise SchemaError(f"provenance is missing {missing}")
    expectation = record.get("expectation")
    if expectation is not None and not isinstance(expectation, str):
        raise SchemaError("'expectation' must be a verdict name or None")
    return record


def headline(record: Dict[str, Any]) -> float:
    """The case's regression-tracked scalar: the metric value at the
    largest measured size (the point where a slowdown hurts most)."""
    point = max(record["points"], key=lambda p: p["n"])
    return float(point["value"])


# ------------------------------------------------------------- history


@dataclass
class Regression:
    """One case's standing against its rolling baseline."""

    suite: str
    case: str
    metric: str
    latest: float
    baseline: Optional[float]
    band: Optional[float]
    n_baseline: int
    flagged: bool

    @property
    def ratio(self) -> Optional[float]:
        if not self.baseline:
            return None
        return self.latest / self.baseline

    def describe(self) -> str:
        name = f"{self.suite}/{self.case}"
        if self.baseline is None:
            return f"{name}: no baseline yet ({self.n_baseline} prior runs)"
        verdictish = "REGRESSION" if self.flagged else "ok"
        return (f"{name}: {verdictish} — latest {self.latest:.3g} vs "
                f"baseline {self.baseline:.3g} "
                f"(x{self.ratio:.2f}, band +{self.band:.0%}, "
                f"n={self.n_baseline})")


class Observatory:
    """Append-only benchmark history over ``<history_dir>/<suite>.jsonl``."""

    def __init__(self, history_dir: str) -> None:
        self.history_dir = history_dir

    def path_for(self, suite: str) -> str:
        return os.path.join(self.history_dir, f"{suite}.jsonl")

    def append(self, record: Dict[str, Any]) -> str:
        """Validate and append one record; returns the history path."""
        validate_record(record)
        os.makedirs(self.history_dir, exist_ok=True)
        path = self.path_for(record["suite"])
        with open(path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return path

    def suites(self) -> List[str]:
        if not os.path.isdir(self.history_dir):
            return []
        return sorted(name[:-6] for name in os.listdir(self.history_dir)
                      if name.endswith(".jsonl"))

    def load(self, suite: Optional[str] = None) -> List[Dict[str, Any]]:
        """All records, in append order (per suite file); lines that do
        not parse or validate are skipped, not fatal — a corrupt tail
        from a killed run must not take the observatory down."""
        suites = [suite] if suite is not None else self.suites()
        records: List[Dict[str, Any]] = []
        for name in suites:
            path = self.path_for(name)
            if not os.path.exists(path):
                continue
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        records.append(validate_record(json.loads(line)))
                    except (ValueError, SchemaError):
                        continue
        return records

    def cases(self) -> Dict[Tuple[str, str], List[Dict[str, Any]]]:
        """History grouped by (suite, case), run order preserved."""
        grouped: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
        for record in self.load():
            grouped.setdefault((record["suite"], record["case"]),
                               []).append(record)
        return grouped

    # ------------------------------------------------- regression gate

    def regressions(self) -> List[Regression]:
        """Latest run vs rolling baseline, per case.

        Baseline: median of the up-to-:data:`BASELINE_N` runs preceding
        the latest that measured the same metric on the same ``machine``
        (provenance fingerprint).  Noise band: ``max(MIN_BAND, 3 *
        MAD/median)`` — the baseline's own dispersion widens the band,
        so a machine that jitters 40% between runs does not page anyone
        at +35%, while a stable series is still gated at
        :data:`MIN_BAND`.
        """
        out: List[Regression] = []
        for (suite_name, case), runs in sorted(self.cases().items()):
            latest = headline(runs[-1])
            # only baseline against runs measuring the same metric — a
            # case that switched metric (e.g. after a recorder change)
            # starts a fresh series instead of comparing apples to
            # oranges
            metric = runs[-1]["metric"]
            # ... and from the same host: timings from a machine with a
            # different fingerprint are not a baseline for this one
            machine = runs[-1]["provenance"]["machine"]
            prior = [headline(r) for r in runs[:-1]
                     if r["metric"] == metric
                     and r["provenance"]["machine"] == machine][-BASELINE_N:]
            if not prior:
                out.append(Regression(suite_name, case,
                                      runs[-1]["metric"], latest,
                                      None, None, 0, False))
                continue
            baseline = statistics.median(prior)
            mad = statistics.median(abs(v - baseline) for v in prior)
            band = MIN_BAND
            if baseline > 0:
                band = max(MIN_BAND, 3.0 * mad / baseline)
            out.append(Regression(
                suite_name, case, runs[-1]["metric"], latest, baseline,
                band, len(prior), bool(latest > baseline * (1.0 + band))))
        return out


# ------------------------------------------------- snapshot BENCH files


def write_snapshot(path: str, records: Sequence[Dict[str, Any]]) -> str:
    """Write a suite snapshot file (the ``BENCH_<suite>.json`` shape):
    the latest record per case, under the canonical schema."""
    doc = {
        "schema": SCHEMA,
        "records": [validate_record(r) for r in records],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_snapshot(path: str) -> List[Dict[str, Any]]:
    """Records of a snapshot file ([] when absent or pre-schema)."""
    if not os.path.exists(path):
        return []
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError:
        return []
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return []
    out = []
    for record in doc.get("records", []):
        try:
            out.append(validate_record(record))
        except SchemaError:
            continue
    return out


def merge_snapshot(path: str, record: Dict[str, Any]) -> str:
    """Replace the (suite, case) row of a snapshot with ``record``."""
    validate_record(record)
    records = [r for r in load_snapshot(path)
               if (r["suite"], r["case"]) != (record["suite"],
                                              record["case"])]
    records.append(record)
    records.sort(key=lambda r: (r["suite"], r["case"]))
    return write_snapshot(path, records)


def save_records(records: Iterable[Dict[str, Any]], history_dir: str,
                 snapshot_dir: str) -> None:
    """Append each record to ``<history_dir>/<suite>.jsonl`` and merge it
    into ``<snapshot_dir>/BENCH_<suite>.json``: the one recorder every
    benchmark entry point writes through."""
    observatory = Observatory(history_dir)
    os.makedirs(snapshot_dir, exist_ok=True)
    for record in records:
        observatory.append(record)
        merge_snapshot(os.path.join(snapshot_dir,
                                    f"BENCH_{record['suite']}.json"), record)


# ------------------------------------------------------- bench suites


def best_of(fn: Callable[[], Any], repeats: int = 2,
            setup: Optional[Callable[[], Any]] = None) -> float:
    """Best wall-clock seconds of ``fn`` over ``repeats`` calls (at least
    one); ``setup`` runs untimed before each call, e.g. to clear the plan
    cache so every call pays its own preprocessing."""
    best = math.inf
    for _ in range(max(1, repeats)):
        if setup is not None:
            setup()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


#: answers measured per enumeration run of the ``bench`` suite
MAX_OUTPUTS = 600


def run_bench_suite(sweep: Tuple[Sequence[int], Sequence[int]],
                    repeats: int = 2, seed: int = 7) -> List[Dict[str, Any]]:
    """The complexity cases over ``sweep`` = (tuples per relation,
    per-side vertex counts of the triangle instances):

    * ``free_connex/delay`` — Theorem 4.6: p50 per-answer delay of the
      free-connex enumerator must stay flat in ``||D||``;
    * ``free_connex/preprocessing`` — the same runs' phase-one cost must
      grow linearly;
    * ``full_acyclic/total`` — Theorem 4.2: full Yannakakis evaluation
      of the quantifier-free join, linear total time;
    * ``acq_linear/delay`` — Theorem 4.3: Algorithm 2's mean delay grows
      with the data;
    * ``lower_bound_triangle/total`` — Theorem 4.9's shape: naive
      triangle detection is superlinear in ``||D||`` where acyclic
      evaluation is linear.

    Expectations are derived from the classifier, not hard-coded, so the
    comparison exercises the same path a user query takes.
    """
    from repro.core.plancache import clear_plan_cache
    from repro.data import generators
    from repro.enumeration.acq_linear import LinearDelayACQEnumerator
    from repro.enumeration.free_connex import FreeConnexEnumerator
    from repro.eval.naive import cq_is_satisfiable_naive
    from repro.eval.yannakakis import yannakakis
    from repro.logic.parser import parse_cq
    from repro.perf.delay import measure_enumerator

    sizes, triangle_sizes = sweep
    fc_query = parse_cq("Q(x) :- R(x, z), S(z, y)")
    full_query = parse_cq("Q(x, z, y) :- R(x, z), S(z, y)")
    lin_query = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    tri_query = parse_cq("Q() :- E(x, y), E(y, z), E(z, x)")

    def fc_profile():
        clear_plan_cache()
        return measure_enumerator(FreeConnexEnumerator(fc_query, db),
                                  max_outputs=MAX_OUTPUTS)

    fc_points, pre_points, lin_points, full_points = [], [], [], []
    for n in sizes:
        db = generators.random_database(
            {"R": 2, "S": 2}, max(4, n // 4), n, seed=seed)
        size = db.size()
        summary = min((fc_profile() for _ in range(max(1, repeats))),
                      key=lambda p: p.percentile(0.5)).summary()
        fc_points.append({"n": size,
                          "value": summary["delay_p50_seconds"], **summary})
        pre_points.append({"n": size,
                           "value": summary["preprocessing_seconds"]})

        clear_plan_cache()
        lin_summary = measure_enumerator(
            LinearDelayACQEnumerator(lin_query, db),
            max_outputs=MAX_OUTPUTS).summary()
        lin_points.append({"n": size,
                           "value": lin_summary["delay_mean_seconds"],
                           **lin_summary})

        total = best_of(lambda: yannakakis(full_query, db), repeats,
                        setup=clear_plan_cache)
        full_points.append({"n": size, "value": total,
                            "outputs": len(yannakakis(full_query, db))})

    tri_points = []
    for n in triangle_sizes:
        db = generators.graph_database(
            [(("a", i), ("b", j)) for i in range(n) for j in range(n)
             if (i + j) % 3], symmetric=True)
        total = best_of(lambda: cq_is_satisfiable_naive(tri_query, db),
                        repeats)
        tri_points.append({"n": db.size(), "value": total,
                           "vertices": 2 * n})

    return [
        dict(case="free_connex/delay", metric="delay_p50_seconds",
             points=fc_points, expectation=expected_verdict(fc_query,
                                                            "delay")),
        dict(case="free_connex/preprocessing",
             metric="preprocessing_seconds", points=pre_points,
             expectation=expected_verdict(fc_query, "preprocessing")),
        dict(case="full_acyclic/total", metric="total_seconds",
             points=full_points,
             expectation=expected_verdict(full_query, "total")),
        dict(case="acq_linear/delay", metric="delay_mean_seconds",
             points=lin_points, expectation=expected_verdict(lin_query,
                                                             "delay")),
        dict(case="lower_bound_triangle/total", metric="total_seconds",
             points=tri_points,
             expectation=expected_verdict(tri_query, "total")),
    ]


def run_dynamic_suite(size: int, repeats: int = 2,
                      seed: int = 7) -> List[Dict[str, Any]]:
    """Delta-propagated count refresh against cold re-preprocessing.

    One fixed two-atom acyclic join at ``size`` tuples per relation; per
    delta fraction ``f`` (0.1%, 1%, 10%), an *update+count cycle*
    applies ``max(1, size*f)`` random inserts/deletes to the base
    relations and then counts the query's answers on the columnar
    engine.  Warm cycles catch the count's maintained Theorem 4.21
    state up through the per-relation delta logs; a count, two logged
    writes that leave the data as it was, and a count seed it first, so
    no timed cycle pays the seed.  Cold cycles empty the plan cache so
    the counting DP is rebuilt from ``||D||``.  One case,
    ``dynamic/count_refresh``: the counting cycle's wall time.  The
    count is the only plan refresh maintains; every other plan rebuilds
    cold after a write.

    Points use ``n`` = delta ops and ``value`` = warm wall seconds, with
    the cold wall riding along as ``cold_seconds`` and the ratio as
    ``speedup_x`` (headline ``best_speedup_x``).  ``fit=False``: the
    axis is a delta size, not an instance size.  No expectation is
    attached (warn-only by design).  Random deletes mostly miss and log
    nothing, so at 100k the largest fraction leaves about 2,500 writes
    per relation, within the default delta-log capacity: it measures a
    refresh, which read 2.0–3.2x faster than a cold rebuild there in
    twelve runs on a 2-CPU host (1%: 11.8–20.5x; 0.1%: 50–69x).
    """
    import random

    from repro.core.planner import count
    from repro.core.plancache import clear_plan_cache
    from repro.data import generators
    from repro.logic.parser import parse_cq

    query = parse_cq("Q(x, z, y) :- R(x, z), S(z, y)")
    domain = max(4, size // 4)
    db = generators.random_database({"R": 2, "S": 2}, domain, size,
                                    seed=seed)
    rng = random.Random(seed)
    engine = "columnar"

    def cycle(k: int, cold: bool = False) -> float:
        def run() -> None:
            for _ in range(k):
                rel = db.relation(rng.choice(["R", "S"]))
                tup = (rng.randrange(domain), rng.randrange(domain))
                if rng.random() < 0.5:
                    rel.add(tup)
                else:
                    rel.discard(tup)
            if cold:  # even when no write took effect
                clear_plan_cache()
            count(query, db, engine=engine)
        return best_of(run, repeats)

    points: List[Dict[str, Any]] = []
    for fraction in (0.001, 0.01, 0.1):
        k = max(1, int(size * fraction))
        clear_plan_cache()
        count(query, db, engine=engine)
        row = next(iter(db.relation("R")))  # two writes that always log
        db.relation("R").discard(row)
        db.relation("R").add(row)
        count(query, db, engine=engine)     # seeds the warm state
        warm = cycle(k)
        clear_plan_cache()      # free the warm plan outside the timing
        cold = cycle(k, cold=True)
        points.append({"n": k, "value": warm, "delta_fraction": fraction,
                       "speedup_x": cold / warm, "cold_seconds": cold})
    return [dict(case="dynamic/count_refresh", metric="wall_seconds",
                 engine=engine, points=points, fit=False,
                 instance_size=size,
                 best_speedup_x=max(p["speedup_x"] for p in points))]


def run_selfjoin_suite(sizes: Sequence[int], repeats: int = 2,
                       seed: int = 7) -> List[Dict[str, Any]]:
    """Per-symbol work sharing on self-join queries.

    Every case runs on columnar instances, where each stored relation's
    version gets one dictionary encode, one probe build and one
    materialised column set, and semijoin passes over the same columns
    coalesce.  Points use ``n`` = ||D|| and ``value`` = the best wall
    seconds of ``repeats`` runs, each after
    :func:`~repro.core.plancache.clear_plan_cache`.  Cases:

    * ``selfjoin/path_count_wall`` — counting the 3-atom same-symbol
      path join Q(x,y,z,w) :- R(x,y), R(y,z), R(z,w) (free-connex since
      quantifier-free), expectation ``linear``;
    * ``selfjoin/path_enum_wall`` — full enumeration of the same path
      join (two of its three probe structures coincide per position);
    * ``selfjoin/star_reduce_wall`` — the full reducer on the star
      Q(x,y1,y2,y3) :- R(x,y1), R(x,y2), R(x,y3), where the bottom-up
      passes against same-column children coalesce;
    * ``selfjoin/triangle_materialise_wall`` — materialisation + one
      probe build per atom of the cyclic triangle R(x,y), R(y,z),
      R(z,x) (evaluation is superlinear by Theorem 4.9, so only the
      linear preprocessing is swept).

    Each point also carries the sharing counters of the first
    materialisation of the path's atoms on the point's freshly generated
    database (``symbol_cache_misses`` must be 1 and ``symbol_cache_hits``
    k-1 for a k-atom self-join — the "one build per symbol per version"
    provenance).
    """
    from repro import obs
    from repro.core.plancache import clear_plan_cache
    from repro.core.planner import count
    from repro.data import generators
    from repro.engine.base import ColumnarEngine
    from repro.enumeration.free_connex import FreeConnexEnumerator
    from repro.eval.yannakakis import full_reducer, materialise_atoms
    from repro.logic.parser import parse_cq

    path_query = parse_cq("Q(x, y, z, w) :- R(x, y), R(y, z), R(z, w)")
    star_query = parse_cq(
        "Q(x, y1, y2, y3) :- R(x, y1), R(x, y2), R(x, y3)")
    tri_query = parse_cq("Q() :- R(x, y), R(y, z), R(z, x)")
    engine = ColumnarEngine.name

    def materialise_and_probe() -> None:
        for rel, atom in zip(materialise_atoms(tri_query, db,
                                               engine=engine),
                             tri_query.atoms):
            rel.batch_probe((atom.variables()[0],))

    cases = {
        "path_count": (path_query,
                       lambda: count(path_query, db, engine=engine)),
        "path_enum": (path_query, lambda: sum(1 for _ in FreeConnexEnumerator(
            path_query, db, engine=engine))),
        "star_reduce": (star_query, lambda: full_reducer(
            star_query, db, engine=engine)),
        "triangle_materialise": (None, materialise_and_probe),
    }
    points: Dict[str, List[Dict[str, Any]]] = {k: [] for k in cases}
    for size in sizes:
        # domain ~ size keeps the expected out-degree at 1, so the path
        # join's output stays O(||D||) and enumeration wall time
        # measures the join, not an exploding output
        db = generators.random_database({"R": 2}, size, size, seed=seed)
        # sharing provenance on the fresh database: k same-symbol atoms
        # must produce exactly 1 miss (the build) and k-1 hits
        with obs.capture() as tracer:
            materialise_atoms(path_query, db, engine=engine)
        for name, (_query, fn) in cases.items():
            points[name].append({
                "n": db.size(),
                "value": best_of(fn, repeats, setup=clear_plan_cache),
                "symbol_cache_hits": tracer.counters.get(
                    "engine.symbol_workspace_hits", 0),
                "symbol_cache_misses": tracer.counters.get(
                    "engine.symbol_workspace_misses", 0),
            })
    return [dict(case=f"selfjoin/{name}_wall", metric="wall_seconds",
                 engine=engine, points=points[name],
                 expectation=(expected_verdict(query, "total")
                              if query is not None else None))
            for name, (query, _fn) in cases.items()]


@dataclass(frozen=True)
class Suite:
    """One benchmark suite: the function that measures it, its sweep,
    and the smaller sweep ``--quick`` runs instead (None: the same one).

    ``run(sweep, repeats=, seed=)`` returns the suite's cases as
    :func:`make_record` keyword arguments, plus an optional ``engine``:
    the engine the case pinned, which the runner moves into provenance
    (absent: the process default).  The runner adds the suite name and
    the provenance."""

    run: Callable[..., List[Dict[str, Any]]]
    sweep: Any
    quick: Any = None


#: every suite ``repro bench`` runs, by name (the history file
#: ``<name>.jsonl`` and the snapshot ``BENCH_<name>.json``).  The
#: ``bench`` sweep spans ~1.2 decades of ||D|| for the binary joins and
#: ~1.5 for the triangles: the smallest spans wide enough that the
#: fitter's one-decade anti-flake rule cannot return ``inconclusive`` on
#: a healthy machine, while the suite stays under ~10 seconds.
SUITES: Dict[str, Suite] = {
    "bench": Suite(run_bench_suite,
                   ((500, 1000, 2000, 4000, 8000), (12, 22, 40, 70))),
    "dynamic": Suite(run_dynamic_suite, 100_000),
    "selfjoin": Suite(run_selfjoin_suite, (10_000, 100_000, 300_000),
                      quick=(2000, 5000, 12000)),
}


def run_suites(names: Iterable[str], timestamp: str, quick: bool = False,
               repeats: int = 2, seed: int = 7) -> List[Dict[str, Any]]:
    """Run the named :data:`SUITES` and return their canonical records.

    Provenance is collected once per run and stamped on every record,
    with the engine each case pinned.  No record says whether tracing
    was on, so the suites run with it off, even under a library
    caller's live tracer, which is restored afterwards."""
    from repro import obs

    provenance = collect_provenance(timestamp)
    records: List[Dict[str, Any]] = []
    with obs.capture(obs.NULL_TRACER):
        for name in names:
            suite = SUITES[name]
            sweep = suite.quick if quick and suite.quick is not None \
                else suite.sweep
            for case in suite.run(sweep, repeats=repeats, seed=seed):
                stamp = dict(provenance,
                             engine=case.pop("engine", provenance["engine"]))
                records.append(make_record(name, provenance=stamp, **case))
    return records
