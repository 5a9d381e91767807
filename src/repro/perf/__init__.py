"""Measurement harness: per-output delay instrumentation (the empirical
side of every theorem reproduction; slope fits live in
:mod:`repro.obs.fitting`)."""

from repro.perf.delay import DelayProfile, measure_enumerator, measure_stream

__all__ = [
    "DelayProfile",
    "measure_enumerator",
    "measure_stream",
]
