"""The complexity observatory: canonical benchmark records, history, and
the regression gate.

Before this module every ``BENCH_*.json`` at the repo root was a one-shot
snapshot in an ad-hoc shape: no provenance, no history, no machine-checked
link between a measured curve and the complexity class the planner
assigned.  The observatory fixes all three:

* **one schema** (:data:`SCHEMA`): a *record* is one benchmark case —
  a size sweep of one metric — with the full delay statistics
  (p50/p95/p99/p99.9, histogram), preprocessing times, throughput, and
  provenance (git sha, runner-supplied timestamp, python/numpy versions,
  machine fingerprint, engine, block size, timer overhead).  The
  recorder *rejects* payloads that do not validate, so ad-hoc dicts can
  no longer leak into the BENCH files;
* **history**: every run appends its records to
  ``benchmarks/history/<suite>.jsonl`` (one JSON object per line), so
  the benchmark trajectory of the repository is a first-class artifact
  that ``repro report`` can render and CI can archive;
* **verdicts**: each record carries the log-log slope fit with CI and
  the categorical verdict (:mod:`repro.obs.fitting`) next to the
  *expected* verdict derived from :mod:`repro.core.classify`, so a
  wrong-shape measurement is an observable, not a human squinting at
  numbers;
* **regression gate**: :meth:`Observatory.regressions` compares each
  case's latest headline measurement against a rolling baseline
  (median of the last N prior runs, with a noise band widened by the
  baseline's own dispersion) and flags regressions; ``repro bench`` /
  ``repro report`` surface the flags and can turn them into a nonzero
  exit code.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

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

#: default rolling-baseline depth and minimum relative noise band
BASELINE_N = 5
MIN_BAND = 0.30


class SchemaError(ValueError):
    """A benchmark payload does not conform to :data:`SCHEMA`."""


# ----------------------------------------------------------- provenance


def collect_provenance(timestamp: str,
                       engine: Optional[str] = None,
                       block_size: Optional[int] = None,
                       cwd: Optional[str] = None) -> Dict[str, Any]:
    """Assemble the provenance block for a run.

    ``timestamp`` is passed in by the runner (the CLI or the benchmark
    process) rather than sampled here, so one invocation stamps all its
    records identically and replayed/backfilled records can carry their
    original times.
    """
    import platform as _platform

    from repro.perf.delay import timer_overhead_ns

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd or os.getcwd(), capture_output=True, text=True,
            timeout=5,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is baked into the image
        numpy_version = None
    if engine is None:
        from repro.engine import get_engine

        engine = get_engine().name
    if block_size is None:
        from repro.engine import resolve_block_size

        block_size = resolve_block_size(None)
    from repro.engine import default_workers

    # cpu_count/workers are additive (not in PROVENANCE_KEYS): pre-pool
    # records without them stay schema-valid, new records let the gate's
    # readers normalise parallel timings by the fan-out they ran at
    return {
        "git_sha": sha,
        "timestamp": timestamp,
        "python": _platform.python_version(),
        "numpy": numpy_version,
        "platform": f"{_platform.system()}-{_platform.machine()}",
        "machine": f"{os.cpu_count()}cpu-{sys.implementation.name}",
        "hostname": _platform.node() or "unknown",
        "engine": engine,
        "block_size": block_size,
        "timer_overhead_ns": timer_overhead_ns(),
        "cpu_count": os.cpu_count(),
        "workers": default_workers(),
    }


def backfill_provenance(timestamp: str) -> Dict[str, Any]:
    """Placeholder provenance for records migrated from the legacy
    pre-observatory BENCH files (which recorded none)."""
    prov = {key: "pre-observatory" for key in PROVENANCE_KEYS}
    prov.update(timestamp=timestamp, numpy=None, block_size=None,
                timer_overhead_ns=None, backfilled=True)
    return prov


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
    (delay percentiles, histogram, preprocessing, throughput) ride
    along.  The log-log fit and verdict are computed here so every
    stored record is self-interpreting.

    Pass ``fit=False`` when ``n`` is *not* an instance size (e.g. the
    parallel suite's worker counts): a log-log slope over such an axis
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
    threshold: Optional[float]
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

    def cases(self, suite: Optional[str] = None
              ) -> Dict[Tuple[str, str], List[Dict[str, Any]]]:
        """History grouped by (suite, case), run order preserved."""
        grouped: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
        for record in self.load(suite):
            grouped.setdefault((record["suite"], record["case"]),
                               []).append(record)
        return grouped

    # ------------------------------------------------- regression gate

    def regressions(self, suite: Optional[str] = None,
                    baseline_n: int = BASELINE_N,
                    min_band: float = MIN_BAND) -> List[Regression]:
        """Latest run vs rolling baseline, per case.

        Baseline: median of the up-to-``baseline_n`` runs preceding the
        latest.  Noise band: ``max(min_band, 3 * MAD/median)`` — the
        baseline's own dispersion widens the band, so a machine that
        jitters 40% between runs does not page anyone at +35%, while a
        stable series is still gated at ``min_band``.
        """
        out: List[Regression] = []
        for (suite_name, case), runs in sorted(self.cases(suite).items()):
            latest = headline(runs[-1])
            # only baseline against runs measuring the same metric — a
            # case that switched metric (e.g. after a recorder change)
            # starts a fresh series instead of comparing apples to
            # oranges
            metric = runs[-1]["metric"]
            prior = [headline(r) for r in runs[:-1]
                     if r["metric"] == metric][-baseline_n:]
            if not prior:
                out.append(Regression(suite_name, case,
                                      runs[-1]["metric"], latest,
                                      None, None, None, 0, False))
                continue
            baseline = statistics.median(prior)
            mad = statistics.median(abs(v - baseline) for v in prior)
            band = min_band
            if baseline > 0:
                band = max(min_band, 3.0 * mad / baseline)
            threshold = baseline * (1.0 + band)
            out.append(Regression(
                suite_name, case, runs[-1]["metric"], latest, baseline,
                band, threshold, len(prior), bool(latest > threshold)))
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


# -------------------------------------------------- legacy migration


def migrate_legacy_doc(doc: Any, suite: str,
                       timestamp: str) -> List[Dict[str, Any]]:
    """Convert a pre-observatory ``BENCH_*.json`` document into canonical
    records (used once to backfill history; kept so old artifacts remain
    readable).  Three legacy shapes existed:

    * ``BENCH_core.json`` — flat rows ``{op, n, backend, seconds}``;
    * ``BENCH_enum.json`` / ``BENCH_obs.json`` — flat rows
      ``{experiment, mode, n, **fields}``;
    * the already-migrated snapshot shape, returned as-is.
    """
    if isinstance(doc, dict) and doc.get("schema") == SCHEMA:
        return [validate_record(r) for r in doc.get("records", [])]
    if not isinstance(doc, list):
        raise SchemaError(f"unrecognised legacy document for {suite!r}")
    provenance = backfill_provenance(timestamp)
    series: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for row in doc:
        if not isinstance(row, dict):
            raise SchemaError("legacy rows must be dicts")
        if {"op", "n", "backend", "seconds"} <= set(row):
            key = (f"{row['op']}/{row['backend']}", "total_seconds")
            point = {"n": row["n"], "value": row["seconds"]}
        elif {"experiment", "mode", "n"} <= set(row):
            fields = {k: v for k, v in row.items()
                      if k not in ("experiment", "mode", "n")}
            case = f"{row['experiment']}/{row['mode']}"
            metric, value = _legacy_primary_metric(fields)
            if metric is None:
                continue
            key = (case, metric)
            point = {"n": row["n"], "value": value, **fields}
        else:
            raise SchemaError(f"unrecognised legacy row {sorted(row)}")
        series.setdefault(key, []).append(point)
    records = []
    for (case, metric), points in sorted(series.items()):
        points.sort(key=lambda p: p["n"])
        records.append(make_record(
            suite, case, metric, points, provenance=provenance))
    return records


def _legacy_primary_metric(fields: Dict[str, Any]
                           ) -> Tuple[Optional[str], Optional[float]]:
    """Pick the primary metric of a legacy enum/obs row (first match
    wins); rows with no measurement (e.g. stored slopes, which the
    observatory recomputes from the points) are dropped."""
    # Ordered to land each legacy row on the metric today's recorders
    # use for the same case, so backfilled history continues the live
    # series: throughput rows also carry delay fields, and flat-delay
    # rows carry both mean and median.
    preferences = (
        ("throughput_per_s", "throughput_per_s", 1.0),
        ("preprocessing_ms", "preprocessing_seconds", 1e-3),
        ("mean_delay_us", "delay_mean_seconds", 1e-6),
        ("median_delay_us", "delay_p50_seconds", 1e-6),
        ("overhead_fraction", "overhead_fraction", 1.0),
        ("wall_seconds", "wall_seconds", 1.0),
        ("ratio", "ratio", 1.0),
    )
    for legacy_key, metric, scale in preferences:
        if legacy_key in fields:
            return metric, fields[legacy_key] * scale
    return None, None


def migrate_legacy_file(path: str, suite: str,
                        timestamp: Optional[str] = None
                        ) -> List[Dict[str, Any]]:
    """Read one legacy BENCH file and return canonical records."""
    import datetime

    if timestamp is None:
        mtime = os.path.getmtime(path)
        timestamp = datetime.datetime.fromtimestamp(
            mtime, datetime.timezone.utc).isoformat(timespec="seconds")
    with open(path) as fh:
        return migrate_legacy_doc(json.load(fh), suite, timestamp)


# ------------------------------------------------------- bench suites


#: the CLI's built-in suite: (case, metric, metric kind, query text)
BENCH_SUITE = "bench"


def run_bench_suites(sizes: Sequence[int],
                     triangle_sizes: Sequence[int],
                     timestamp: str,
                     max_outputs: int = 600,
                     repeats: int = 2,
                     seed: int = 7) -> List[Dict[str, Any]]:
    """Run the built-in complexity suites and return canonical records.

    Four cases spanning the paper's shape claims, sized by the caller
    (``repro bench --quick`` uses a ~1.2-decade sweep):

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
    import time

    from repro.core.plancache import clear_plan_cache
    from repro.data import generators
    from repro.enumeration.acq_linear import LinearDelayACQEnumerator
    from repro.enumeration.free_connex import FreeConnexEnumerator
    from repro.eval.naive import cq_is_satisfiable_naive
    from repro.eval.yannakakis import yannakakis
    from repro.logic.parser import parse_cq
    from repro.perf.delay import measure_enumerator

    provenance = collect_provenance(timestamp)
    fc_query = parse_cq("Q(x) :- R(x, z), S(z, y)")
    full_query = parse_cq("Q(x, z, y) :- R(x, z), S(z, y)")
    lin_query = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    tri_query = parse_cq("Q() :- E(x, y), E(y, z), E(z, x)")

    def bin_db(n: int):
        return generators.random_database(
            {"R": 2, "S": 2}, max(4, n // 4), n, seed=seed)

    fc_points, pre_points, lin_points, full_points = [], [], [], []
    for n in sizes:
        db = bin_db(n)
        size = db.size()
        best = None
        for _ in range(max(1, repeats)):
            clear_plan_cache()
            profile = measure_enumerator(
                FreeConnexEnumerator(fc_query, db), max_outputs=max_outputs)
            if best is None or profile.percentile(0.5) \
                    < best.percentile(0.5):
                best = profile
        summary = best.summary()
        fc_points.append({"n": size,
                          "value": summary["delay_p50_seconds"], **summary})
        pre_points.append({"n": size,
                           "value": summary["preprocessing_seconds"]})

        clear_plan_cache()
        lin_profile = measure_enumerator(
            LinearDelayACQEnumerator(lin_query, db),
            max_outputs=max_outputs)
        lin_summary = lin_profile.summary()
        lin_points.append({"n": size,
                           "value": lin_summary["delay_mean_seconds"],
                           **lin_summary})

        total = math.inf
        for _ in range(max(1, repeats)):
            clear_plan_cache()
            start = time.perf_counter()
            out = yannakakis(full_query, db)
            total = min(total, time.perf_counter() - start)
        full_points.append({"n": size, "value": total,
                            "outputs": len(out)})

    tri_points = []
    for n in triangle_sizes:
        db = generators.graph_database(
            [(("a", i), ("b", j)) for i in range(n) for j in range(n)
             if (i + j) % 3], symmetric=True)
        size = db.size()
        total = math.inf
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            cq_is_satisfiable_naive(tri_query, db)
            total = min(total, time.perf_counter() - start)
        tri_points.append({"n": size, "value": total, "vertices": 2 * n})

    return [
        make_record(BENCH_SUITE, "free_connex/delay", "delay_p50_seconds",
                    fc_points, expectation=expected_verdict(fc_query,
                                                            "delay"),
                    provenance=provenance),
        make_record(BENCH_SUITE, "free_connex/preprocessing",
                    "preprocessing_seconds", pre_points,
                    expectation=expected_verdict(fc_query,
                                                 "preprocessing"),
                    provenance=provenance),
        make_record(BENCH_SUITE, "full_acyclic/total", "total_seconds",
                    full_points, expectation=expected_verdict(full_query,
                                                              "total"),
                    provenance=provenance),
        make_record(BENCH_SUITE, "acq_linear/delay", "delay_mean_seconds",
                    lin_points, expectation=expected_verdict(lin_query,
                                                             "delay"),
                    provenance=provenance),
        make_record(BENCH_SUITE, "lower_bound_triangle/total",
                    "total_seconds", tri_points,
                    expectation=expected_verdict(tri_query, "total"),
                    provenance=provenance),
    ]


#: the worker-pool suite: speedup-vs-workers on one fixed instance
PARALLEL_SUITE = "parallel"


def run_parallel_suite(timestamp: str, size: int = 60_000,
                       workers_list: Optional[Sequence[int]] = None,
                       repeats: int = 2,
                       seed: int = 7) -> List[Dict[str, Any]]:
    """Measure the parallel backend's enumeration speedup-vs-workers curve.

    One fixed two-atom join instance; the serial ``columnar`` backend
    sets the baseline, then the wall time of a full free-connex scan is
    measured per worker count (pool dispatch forced by a zero
    threshold).  Block enumeration is the only layer the parallel
    backend hands to its pool; counting runs the serial columnar kernel
    there, so it has no curve to record.  Points use ``n`` = workers and
    ``value`` = wall seconds (the gate's higher-is-worse convention; the
    headline is the max-worker wall time), with the speedup-over-serial
    curve riding
    along as a per-point ``speedup_x`` and its best value as a
    record-level ``best_speedup_x`` so the suite is gated on speedup,
    not on a pseudo-scaling-law.  The records carry **no slope fit**
    (``fit=False``): ``n`` is a worker count, not an instance size, and
    the old fitted "slopes" over 2-4 worker points were exactly the
    unreliable sub-3-point interpolations :data:`~repro.obs.fitting`
    now flags.  No expectation is attached either: on shared 1-2 cpu
    runners the curve is flat or worse, and a verdict there would only
    produce noise (warn-only by design).
    """
    import time

    from repro.core.plancache import clear_plan_cache
    from repro.data import generators
    from repro.engine.parallel import ParallelEngine
    from repro.enumeration.free_connex import FreeConnexEnumerator
    from repro.logic.parser import parse_cq

    provenance = collect_provenance(timestamp, engine="parallel")
    cpus = os.cpu_count() or 1
    if workers_list is None:
        workers_list = sorted({1, 2, min(4, max(2, cpus)), cpus})
    query = parse_cq("Q(x, z, y) :- R(x, z), S(z, y)")
    db = generators.random_database({"R": 2, "S": 2}, max(4, size // 4),
                                    size, seed=seed)

    def timed(fn) -> float:
        best = math.inf
        for _ in range(max(1, repeats)):
            clear_plan_cache()
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    def run_enum(engine) -> None:
        for _ in FreeConnexEnumerator(query, db, engine=engine):
            pass

    enum_base = timed(lambda: run_enum("columnar"))
    enum_points = []
    for w in workers_list:
        eng = ParallelEngine(workers=w, threshold=0)
        enum_wall = timed(lambda: run_enum(eng))
        enum_points.append({"n": w, "value": enum_wall,
                            "speedup_x": enum_base / enum_wall,
                            "serial_seconds": enum_base})
    return [
        make_record(PARALLEL_SUITE, "parallel/enum_wall", "wall_seconds",
                    enum_points, provenance=provenance, instance_size=size,
                    cpu_count=cpus, fit=False,
                    best_speedup_x=max(p["speedup_x"]
                                       for p in enum_points)),
    ]


#: the incremental-maintenance suite: warm delta refresh vs cold rebuild
DYNAMIC_SUITE = "dynamic"


def run_dynamic_suite(timestamp: str, size: int = 100_000,
                      delta_fractions: Optional[Sequence[float]] = None,
                      repeats: int = 2, seed: int = 7,
                      engine: str = "columnar") -> List[Dict[str, Any]]:
    """Measure delta-propagated plan refresh against cold re-preprocessing.

    One fixed two-atom acyclic join at ``size`` tuples per relation; per
    delta fraction ``f``, an *update+query cycle* applies
    ``max(1, size*f)`` random inserts/deletes to the base relations and
    then re-runs the query.  Warm cycles run with ``REPRO_INCREMENTAL``
    semantics on (the cached plan is caught up through the per-relation
    delta logs); cold cycles disable the plan cache so every
    preprocessing artefact — dictionary encoding, semijoin reduction,
    counting DP — is rebuilt from ``||D||``.  Two cases:

    * ``dynamic/count_refresh`` — Theorem 4.21 counting cycle wall time;
    * ``dynamic/reduce_refresh`` — full-reducer cycle wall time.

    Points use ``n`` = delta ops and ``value`` = warm wall seconds, with
    the cold wall riding along as ``cold_seconds`` and the ratio as
    ``speedup_x`` (headline ``best_speedup_x``).  ``fit=False``: the
    axis is a delta size, not an instance size, so a log-log slope over
    it is not a scaling law.  No expectation is attached — the largest
    fraction deliberately overflows the default delta-log capacity and
    degrades to a ~1x cold fallback, which is the documented boundary,
    not a regression (warn-only by design).
    """
    import random
    import time

    from repro.core.planner import count
    from repro.core.plancache import (clear_plan_cache, incremental_scope,
                                      plan_cache_disabled)
    from repro.data import generators
    from repro.eval.yannakakis import full_reducer
    from repro.logic.parser import parse_cq

    provenance = collect_provenance(timestamp, engine=engine)
    if delta_fractions is None:
        delta_fractions = (0.001, 0.01, 0.1)
    query = parse_cq("Q(x, z, y) :- R(x, z), S(z, y)")
    db = generators.random_database({"R": 2, "S": 2}, max(4, size // 4),
                                    size, seed=seed)
    rng = random.Random(seed)
    names = ["R", "S"]
    domain = max(4, size // 4)

    def apply_batch(k: int) -> None:
        for _ in range(k):
            rel = db.relation(rng.choice(names))
            tup = (rng.randrange(domain), rng.randrange(domain))
            if rng.random() < 0.5:
                rel.add(tup)
            else:
                rel.discard(tup)

    def timed_cycles(k: int, fn) -> float:
        best = math.inf
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            apply_batch(k)
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    count_points, reduce_points = [], []
    for fraction in delta_fractions:
        k = max(1, int(size * fraction))
        with incremental_scope(True):
            clear_plan_cache()
            count(query, db, engine=engine)        # prime the warm state
            full_reducer(query, db, engine=engine)
            count_warm = timed_cycles(k, lambda: count(query, db,
                                                       engine=engine))
            reduce_warm = timed_cycles(k, lambda: full_reducer(
                query, db, engine=engine))
        with incremental_scope(False), plan_cache_disabled():
            count_cold = timed_cycles(k, lambda: count(query, db,
                                                       engine=engine))
            reduce_cold = timed_cycles(k, lambda: full_reducer(
                query, db, engine=engine))
        count_points.append({"n": k, "value": count_warm,
                             "delta_fraction": fraction,
                             "speedup_x": count_cold / count_warm,
                             "cold_seconds": count_cold})
        reduce_points.append({"n": k, "value": reduce_warm,
                              "delta_fraction": fraction,
                              "speedup_x": reduce_cold / reduce_warm,
                              "cold_seconds": reduce_cold})
    return [
        make_record(DYNAMIC_SUITE, "dynamic/count_refresh", "wall_seconds",
                    count_points, provenance=provenance, instance_size=size,
                    fit=False,
                    best_speedup_x=max(p["speedup_x"]
                                       for p in count_points)),
        make_record(DYNAMIC_SUITE, "dynamic/reduce_refresh", "wall_seconds",
                    reduce_points, provenance=provenance, instance_size=size,
                    fit=False,
                    best_speedup_x=max(p["speedup_x"]
                                       for p in reduce_points)),
    ]

#: the self-join suite: shared per-symbol work vs the per-atom baseline
SELFJOIN_SUITE = "selfjoin"


def run_selfjoin_suite(timestamp: str,
                       sizes: Optional[Sequence[int]] = None,
                       repeats: int = 2, seed: int = 7,
                       engine: str = "columnar") -> List[Dict[str, Any]]:
    """Measure engine-wide per-symbol work sharing on self-join queries.

    Every case runs two arms on identical instances: **shared** (the
    default — one dictionary encode, one probe build, one materialised
    column set per (symbol, db version), semijoin passes coalesced) and
    **per-atom** (:func:`repro.engine.symbols.sharing_scope` forced off,
    which also bypasses the relation-level encode cache — each atom
    occurrence pays its own build, the historical behaviour).  Points
    use ``n`` = ||D|| and ``value`` = shared-arm wall seconds with the
    per-atom arm riding along as ``disabled_seconds`` and the ratio as
    ``speedup_x``; the headline ``best_speedup_x`` is what CI gates on
    (warn-only).  Cases:

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

    Each point also carries the workspace counters from one freshly
    instantiated engine (``symbol_cache_misses`` must be 1 and
    ``symbol_cache_hits`` k-1 for a k-atom self-join — the "one build
    per symbol per version" provenance the acceptance bar asks for).
    """
    import time

    from repro import obs
    from repro.core.plancache import clear_plan_cache
    from repro.core.planner import count
    from repro.data import generators
    from repro.engine.base import ColumnarEngine
    from repro.engine.symbols import sharing_scope
    from repro.enumeration.free_connex import FreeConnexEnumerator
    from repro.eval.yannakakis import full_reducer, materialise_atoms
    from repro.logic.parser import parse_cq

    provenance = collect_provenance(timestamp, engine=engine)
    if sizes is None:
        sizes = (10_000, 100_000, 300_000)
    path_query = parse_cq("Q(x, y, z, w) :- R(x, y), R(y, z), R(z, w)")
    star_query = parse_cq(
        "Q(x, y1, y2, y3) :- R(x, y1), R(x, y2), R(x, y3)")
    tri_query = parse_cq("Q() :- R(x, y), R(y, z), R(z, x)")

    def timed(fn) -> float:
        best = math.inf
        for _ in range(max(1, repeats)):
            clear_plan_cache()
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    def materialise_and_probe(query, eng) -> None:
        for rel, atom in zip(materialise_atoms(query, db, engine=eng),
                             query.atoms):
            rel.batch_probe((atom.variables()[0],))

    cases = {
        "path_count": lambda eng: count(path_query, db, engine=eng),
        "path_enum": lambda eng: sum(
            1 for _ in FreeConnexEnumerator(path_query, db, engine=eng)),
        "star_reduce": lambda eng: full_reducer(star_query, db, engine=eng),
        "triangle_materialise":
            lambda eng: materialise_and_probe(tri_query, eng),
    }
    points: Dict[str, List[Dict[str, Any]]] = {k: [] for k in cases}
    for size in sizes:
        # domain ~ size keeps the expected out-degree at 1, so the path
        # join's output stays O(||D||) and enumeration wall time
        # measures the join, not an exploding output
        db = generators.random_database({"R": 2}, size, size, seed=seed)
        n = db.size()
        # sharing provenance on a cold engine: k same-symbol atoms must
        # produce exactly 1 workspace miss (the build) and k-1 hits
        with obs.capture() as tracer:
            materialise_atoms(path_query, db, engine=ColumnarEngine())
        hits = tracer.counters.get("engine.symbol_workspace_hits", 0)
        misses = tracer.counters.get("engine.symbol_workspace_misses", 0)
        for name, fn in cases.items():
            shared = timed(lambda: fn(engine))
            with sharing_scope(False):
                disabled = timed(lambda: fn(engine))
            points[name].append({
                "n": n, "value": shared,
                "disabled_seconds": disabled,
                "speedup_x": disabled / shared,
                "symbol_cache_hits": hits,
                "symbol_cache_misses": misses,
            })

    def record(name: str, case: str, query=None,
               fit: bool = True) -> Dict[str, Any]:
        pts = points[name]
        return make_record(
            SELFJOIN_SUITE, case, "wall_seconds", pts,
            provenance=provenance, fit=fit,
            expectation=(expected_verdict(query, "total")
                         if query is not None else None),
            best_speedup_x=max(p["speedup_x"] for p in pts))

    return [
        record("path_count", "selfjoin/path_count_wall", path_query),
        record("path_enum", "selfjoin/path_enum_wall", path_query),
        record("star_reduce", "selfjoin/star_reduce_wall", star_query),
        record("triangle_materialise",
               "selfjoin/triangle_materialise_wall"),
    ]
