"""Tests for the always-on metrics registry (repro.obs.registry) and
its quantile sketches (repro.obs.sketch): bucket accuracy, weighted
adds, independent copies, always-on collection with the tracer
disabled, and exact counters over a columnar enumeration."""

import random

import pytest

from repro import obs
from repro.core.plancache import clear_plan_cache
from repro.core.planner import enumerate_answers
from repro.data.generators import random_database
from repro.logic.parser import parse_query
from repro.obs.registry import MetricsRegistry, registry, set_enabled, \
    suspended
from repro.obs.sketch import QuantileSketch, bucket_bounds, bucket_index

FULL_QUERY = "Q(x, z, y) :- R(x, z), S(z, y)"


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_plan_cache()
    registry().reset()
    prev = set_enabled(True)
    yield
    set_enabled(prev)
    registry().reset()
    clear_plan_cache()
    obs.disable()


def _demo_db(n=200, seed=1):
    return random_database({"R": 2, "S": 2}, domain_size=50,
                           tuples_per_relation=n, seed=seed)


# ------------------------------------------------------------------ sketch


def test_bucket_bounds_contain_value():
    for v in [0, 1, 7, 8, 9, 15, 16, 17, 100, 1_000, 123_456, 10**9, 10**12]:
        lo, hi = bucket_bounds(bucket_index(v))
        assert lo <= v < hi, (v, lo, hi)


def test_bucket_relative_error_bounded():
    # log-linear bucketing with 8 sub-buckets per octave: width <= 12.5%
    for v in [20, 333, 5_000, 77_777, 10**6, 10**9]:
        lo, hi = bucket_bounds(bucket_index(v))
        assert (hi - lo) / lo <= 0.125 + 1e-9


def test_sketch_quantiles_accurate_on_random_data():
    rng = random.Random(42)
    values = [rng.randrange(1, 10**9) for _ in range(20_000)]
    sk = QuantileSketch()
    for v in values:
        sk.add(v)
    values.sort()
    for q in (0.5, 0.95, 0.99, 0.999):
        exact = values[min(len(values) - 1, int(q * len(values)))]
        approx = sk.quantile(q)
        assert abs(approx - exact) / exact < 0.15, (q, exact, approx)


def _sketch_state(sk):
    return (dict(sk.buckets), sk.count, sk.total, sk.min, sk.max,
            dict(sk.exemplars))


def test_sketch_copy_and_weights():
    sk = QuantileSketch()
    sk.add(1_000, weight=10)
    sk.add(2_000, weight=5)
    sk.add(90_000_000, trace_id="cafe", ts=9.5)
    assert sk.count == 16
    assert sk.total == 1_000 * 10 + 2_000 * 5 + 90_000_000
    source = _sketch_state(sk)
    clone = sk.copy()
    assert _sketch_state(clone) == source
    assert clone.summary() == sk.summary()
    # the copy owns its state: later adds to the source leave it alone
    sk.add(5, weight=3)
    sk.add(90_000_001, trace_id="beef", ts=10.0)
    assert _sketch_state(sk) != source
    assert _sketch_state(clone) == source


def test_sketch_empty_and_negative():
    sk = QuantileSketch()
    assert sk.quantile(0.5) == 0
    sk.add(-5)  # clamped to zero, not dropped
    assert sk.count == 1
    assert sk.quantile(0.99) == 0


# ---------------------------------------------------------------- registry


def test_registry_counts_and_gauges_exact():
    reg = MetricsRegistry()
    reg.enabled = True
    for _ in range(100):
        reg.count("a")
    reg.count("b", 42)
    reg.gauge("g", 3.5)
    reg.observe("lat", 500, weight=2)
    snap = reg.snapshot()
    assert snap["counters"] == {"a": 100, "b": 42}
    assert snap["gauges"] == {"g": 3.5}
    assert snap["sketches"]["lat"]["count"] == 2


def test_registry_disabled_records_nothing():
    reg = MetricsRegistry()
    reg.enabled = False
    reg.count("x")
    reg.observe("y", 5)
    reg.record_delay(100, 1)
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "sketches": {}}


def test_suspended_context_manager():
    reg = registry()
    with suspended():
        obs.count("inside.suspend")
    obs.count("after.suspend")
    assert reg.counter("inside.suspend") == 0
    assert reg.counter("after.suspend") == 1


def test_record_delay_weights_and_listener():
    reg = MetricsRegistry()
    reg.enabled = True
    seen = []
    reg.add_delay_listener(lambda gap, answers: seen.append((gap, answers)))
    reg.record_delay(10_000, answers=10)
    sk = reg.sketch("enum.delay_ns")
    assert sk.count == 10                 # weight = answers
    assert seen == [(10_000, 10)]
    reg.remove_delay_listener(seen.append)  # unknown fn: no-op


# ------------------------------------------------------------- always-on


def test_registry_collects_with_tracer_disabled():
    assert not obs.enabled()
    q = parse_query(FULL_QUERY)
    db = _demo_db()
    answers = sum(1 for _ in enumerate_answers(q, db))
    snap = registry().snapshot()
    assert snap["counters"]["enum.answers"] == answers
    assert snap["sketches"]["enum.delay_ns"]["count"] == answers
    # spans routed into phase sketches even without a tracer
    assert any(name.startswith("phase.") for name in snap["sketches"])


def test_span_feeds_tracer_when_enabled_registry_otherwise():
    with obs.capture() as tr:
        with obs.span("only.in.tracer"):
            pass
    assert any(s.name == "only.in.tracer" for s in tr.spans)
    assert registry().sketch("phase.only.in.tracer") is None
    with obs.span("only.in.registry"):
        pass
    assert registry().sketch("phase.only.in.registry") is not None


def test_metrics_env_var_disables(monkeypatch):
    monkeypatch.setenv("REPRO_METRICS", "off")
    reg = MetricsRegistry()
    assert not reg.enabled
    monkeypatch.setenv("REPRO_METRICS", "1")
    assert MetricsRegistry().enabled
    monkeypatch.delenv("REPRO_METRICS")
    assert MetricsRegistry().enabled


# ------------------------------------------------------- counter exactness


def test_counters_exact_on_columnar():
    q = parse_query(FULL_QUERY)
    db = _demo_db(n=600, seed=3)
    registry().reset()
    answers = sum(1 for _ in enumerate_answers(q, db, engine="columnar"))
    assert answers > 0
    snap = registry().snapshot()
    assert snap["counters"]["enum.answers"] == answers
    assert snap["sketches"]["enum.delay_ns"]["count"] == answers
