#!/usr/bin/env python3
"""End-to-end benchmark of query serving, with a per-layer breakdown.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in this process as a closed
loop with one client: set up three times, then send requests for
``--seconds`` seconds, checking every answer.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` requests run through
the layer functions inside spans, the metrics are the per-layer ones,
and the Chrome trace plus a per-layer table are written to
``bench/out/``.

Times are reported at a reference host speed (see :class:`HostSpeed`):
the shared host this benchmark was built on changes speed by a third
within seconds, which no statistic of raw wall times survives.

The program runs from ``src/`` of the checkout this file sits in, on
the columnar engine and otherwise on its defaults: every other
``REPRO_*`` variable is removed from the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: a fixed count: every set-up pins its database in the plan cache, so
#: peak RSS repeats only if the count does
SETUP_REPEATS = 3
MIN_REQUESTS = 5

#: process environment per workload, on top of the columnar engine
WORKLOAD_ENV = {"update-count": {"REPRO_INCREMENTAL": "1"}}

TIME_UNITS = {"s", "ms", "us", "ns"}

END_TO_END_UNITS = {"setup_s": "s", "req_ms_p50": "ms", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "logic.parse_us": "us",
    "core.classify_us": "us",
    "data.ingest_ms": "ms",
    "data.ingest_ns_per_tuple": "ns",
    "data.write_us_per_op": "us",
    "data.fingerprint_us": "us",
    "engine.materialise_ms": "ms",
    "engine.materialise_rows": "count",
    "engine.workspace_hit_ratio": "ratio",
    "eval.full_reduce_ms": "ms",
    "eval.reduce_keep_ratio": "ratio",
    "eval.model_check_ms": "ms",
    "eval.naive_count_ms": "ms",
    "counting.derive_ms": "ms",
    "counting.dp_ms.path3": "ms",
    "counting.dp_ms.selfjoin": "ms",
    "counting.dp_ms.proj": "ms",
    "dynamic.refresh_count_ms": "ms",
    "core.plancache.hit_ratio": "ratio",
    "core.plancache.refresh_ratio": "ratio",
    "core.plancache.entries": "count",
    "enumeration.preprocess_ms": "ms",
    "enumeration.ns_per_answer": "ns",
    "enumeration.answers": "count",
    "enumeration.delay_us_p9999": "us",
    "runtime.gc_ms": "ms",
    "runtime.gc_gen2": "count",
    "trace.request_ms": "ms",
    "trace.unattributed_ms": "ms",
}


def configure_environment(workload: str) -> None:
    """Pin the program's configuration before it is imported."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_ENGINE"] = "columnar"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ.update(WORKLOAD_ENV.get(workload, {}))


def p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_kernel() -> int:
    """Fixed pure-Python work (tuple keys into a dict, then a filtered
    sum), the kind of work the program's interpreted layers do.  It
    never calls the program, so no program change can move it."""
    d = {}
    for i in range(20_000):
        d[(i, i & 255)] = i
    return sum(v for (_a, b), v in d.items() if b < 128)


class HostSpeed:
    """Tracks host speed by timing :func:`reference_kernel` between
    requests, at most every ``EVERY_S`` seconds, with the collector off.

    :meth:`factor` scales a time measured in this run to a host on which
    the kernel takes ``REFERENCE_NS`` (its median on the 2-vCPU KVM
    guest the bounds in ``BENCHMARK.json`` were set on).  Timing the
    kernel costs about 4% of a run.
    """

    REFERENCE_NS = 3.6e6
    EVERY_S = 0.1

    def __init__(self) -> None:
        self.samples = []
        self._last = 0.0

    def sample(self) -> None:
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            reference_kernel()
            self.samples.append(time.perf_counter_ns() - t0)
        finally:
            gc.enable()
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    def factor(self, start: int = 0, stop: Optional[int] = None) -> float:
        """The scale for times measured while ``samples[start:stop]``
        were taken."""
        return self.REFERENCE_NS / statistics.median(self.samples[start:stop])


class GcMeter:
    """Garbage-collector pauses, timed through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.ns = 0
        self.gen2 = 0
        self._start = 0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.ns += time.perf_counter_ns() - self._start
            self.gen2 += info["generation"] == 2

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def _request_loop(wl, seconds: float, serve, speed: HostSpeed) -> dict:
    """Send requests until ``seconds`` have passed (and at least
    ``MIN_REQUESTS``); an exception or a wrong answer counts as failed
    and never stops the loop."""
    latencies = []
    failed = 0
    i = 0
    deadline = time.perf_counter() + seconds
    while i < MIN_REQUESTS or time.perf_counter() < deadline:
        speed.maybe_sample()
        try:
            arg = wl.prepare(i)
            t0 = time.perf_counter()
            out = serve(i, arg)
            latencies.append(time.perf_counter() - t0)
            ok = wl.check(i, out)
        except Exception:
            traceback.print_exc(limit=3, file=sys.stderr)
            ok = False
        failed += not ok
        i += 1
    if not latencies:
        raise SystemExit(f"bench: every {wl.name} request raised")
    return {"attempted": i, "failed": failed, "latencies": latencies}


def layer_metrics(rec, wl, stats0: dict, stats1: dict, gcm: GcMeter,
                  requests: int) -> dict:
    """Per-layer metrics: each time is the median over requests of the
    time the request spent in that layer's spans (zero when the
    workload never enters the layer)."""
    reqs = sorted(rec.per_request("request"))

    def per_req(name, attr=None):
        found = rec.per_request(name, attr)
        return [found.get(r, 0) for r in reqs]

    def time_p50(name, ns_per_unit):
        return p50(per_req(name)) / ns_per_unit

    def per_unit(name, attr, ns_per_unit):
        return p50([t / u for t, u in zip(per_req(name), per_req(name, attr))
                    if u]) / ns_per_unit

    def ratio(num, den):
        return num / den if den else 0.0

    def delta(key):
        return stats1[key] - stats0[key]

    kept = [ratio(o, i) for o, i in zip(per_req("eval.full_reduce", "rows_out"),
                                        per_req("eval.full_reduce", "rows_in"))
            if i]
    ws_hits = delta("symbol_workspace_hits")
    return {
        "logic.parse_us": time_p50("logic.parse", 1e3),
        "core.classify_us": time_p50("core.classify", 1e3),
        "data.ingest_ms": time_p50("data.ingest", 1e6),
        "data.ingest_ns_per_tuple": per_unit("data.ingest", "tuples", 1),
        "data.write_us_per_op": per_unit("data.write", "ops", 1e3),
        "data.fingerprint_us": time_p50("data.fingerprint", 1e3),
        "engine.materialise_ms": time_p50("engine.materialise", 1e6),
        "engine.materialise_rows": p50(per_req("engine.materialise", "rows")),
        "engine.workspace_hit_ratio": ratio(
            ws_hits, ws_hits + delta("symbol_workspace_misses")),
        "eval.full_reduce_ms": time_p50("eval.full_reduce", 1e6),
        "eval.reduce_keep_ratio": p50(kept),
        "eval.model_check_ms": time_p50("eval.model_check", 1e6),
        "eval.naive_count_ms": time_p50("eval.naive_count", 1e6),
        "counting.derive_ms": time_p50("counting.derive", 1e6),
        "counting.dp_ms.path3": time_p50("counting.dp.path3", 1e6),
        "counting.dp_ms.selfjoin": time_p50("counting.dp.selfjoin", 1e6),
        "counting.dp_ms.proj": time_p50("counting.dp.proj", 1e6),
        "dynamic.refresh_count_ms": time_p50("dynamic.refresh_count", 1e6),
        "core.plancache.hit_ratio": ratio(
            delta("hits"), delta("hits") + delta("misses")),
        "core.plancache.refresh_ratio": ratio(
            delta("refreshes"), delta("refreshes")
            + delta("refresh_fallbacks") + delta("refresh_overflows")),
        "core.plancache.entries": stats1["entries"],
        "enumeration.preprocess_ms": time_p50("enumeration.preprocess", 1e6),
        "enumeration.ns_per_answer": per_unit("enumeration.iterate",
                                              "answers", 1),
        "enumeration.answers": p50(per_req("enumeration.iterate", "answers")),
        "enumeration.delay_us_p9999": wl.delay_p9999_ns() / 1e3,
        "runtime.gc_ms": gcm.ns / requests / 1e6,
        "runtime.gc_gen2": gcm.gen2,
        "trace.request_ms": time_p50("request", 1e6),
        "trace.unattributed_ms": p50(list(rec.unattributed().values())) / 1e6,
    }


def _write_trace(rec, name: str, metrics: dict, requests: int,
                 factor: float) -> str:
    OUT.mkdir(exist_ok=True)
    rec.write_chrome_trace(OUT / f"trace-{name}.json")
    lines = [f"# {name}: per-layer breakdown over {requests} traced requests",
             f"# times at reference host speed (raw times x {factor:.3f}); "
             f"the Chrome trace holds raw times",
             f"{'metric':34} {'value':>16}  unit"]
    lines += [f"{k:34} {v['value']:>16.4f}  {v['unit']}"
              for k, v in metrics.items()]
    table = "\n".join(lines) + "\n"
    (OUT / f"layers-{name}.txt").write_text(table)
    return table


def run(cls, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One run of workload class ``cls``; returns the result object."""
    from inputs import make_inputs
    from repro.core.plancache import plan_cache
    from spans import Recorder

    wl = cls(make_inputs(seed, *(sizes or cls.sizes)), seed)
    speed = HostSpeed()
    setup = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t0)
    speed.sample()
    setup_samples = len(speed.samples)

    if not trace:
        loop = _request_loop(wl, seconds, lambda i, arg: wl.serve(arg),
                             speed)
        factor = speed.factor(start=setup_samples)
        units = END_TO_END_UNITS
        # set-up is scaled by the samples taken around it
        values = {"setup_s": p50(setup) * speed.factor(stop=setup_samples),
                  "req_ms_p50": p50(loop["latencies"]) * 1e3 * factor,
                  "peak_rss_mb": peak_rss_mb()}
    else:
        rec = Recorder()

        def serve(i, arg):
            try:
                with rec.request(i):
                    return wl.serve_traced(arg, rec)
            finally:
                wl.classify_probe(rec, i)

        stats0 = plan_cache().stats()
        with GcMeter() as gcm:
            loop = _request_loop(wl, seconds, serve, speed)
        factor = speed.factor(start=setup_samples)
        units = LAYER_UNITS
        values = {k: v * factor if units[k] in TIME_UNITS else v
                  for k, v in layer_metrics(rec, wl, stats0,
                                            plan_cache().stats(), gcm,
                                            loop["attempted"]).items()}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(f"bench: {wl.name}: {len(setup)} set-ups, "
          f"{len(loop['latencies'])} timed requests, raw request p50 "
          f"{p50(loop['latencies']) * 1e3:.3f} ms, host speed factor "
          f"{factor:.3f}", file=sys.stderr)
    if trace:
        print(_write_trace(rec, wl.name, metrics, loop["attempted"], factor),
              file=sys.stderr)
    return {"correct": loop["failed"] == 0, "attempted": loop["attempted"],
            "failed": loop["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    configure_environment(args.workload)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
