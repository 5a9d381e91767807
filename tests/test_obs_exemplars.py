"""Sketch exemplars: the tail-to-trace link (ISSUE 9).

A :class:`QuantileSketch` bucket may retain one exemplar — the most
recent ``(ts, trace_id, value)`` that landed in it — so a p99/p99.9
outlier in ``repro top`` or the OpenMetrics exposition points at the
concrete request that caused it.  The properties that make this safe to
rely on: newest-wins within a bucket (by timestamp, so the order of the
adds does not matter), retention limited to the highest buckets (the
tail is what anyone debugs), and survival through the OpenMetrics
exemplar syntax.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.expose import openmetrics_text, parse_openmetrics
from repro.obs.sketch import EXEMPLAR_BUCKETS, QuantileSketch


def test_add_with_trace_id_retains_an_exemplar():
    s = QuantileSketch()
    s.add(1_000_000, trace_id="aaaa", ts=1.0)
    ex = s.exemplar(0.99)
    assert ex is not None
    assert ex[1] == "aaaa" and ex[2] == 1_000_000


def test_add_without_trace_id_retains_nothing():
    s = QuantileSketch()
    s.add(1_000_000)
    assert s.exemplar(0.99) is None
    assert s.exemplars == {}


def test_newest_wins_within_a_bucket():
    s = QuantileSketch()
    s.add(1_000_000, trace_id="old", ts=1.0)
    s.add(1_000_001, trace_id="new", ts=2.0)  # same log bucket, later ts
    s.add(1_000_002, trace_id="stale", ts=0.5)  # earlier ts: ignored
    ex = s.exemplar(0.99)
    assert ex is not None and ex[1] == "new"


def test_retention_trims_to_the_highest_buckets():
    s = QuantileSketch()
    for i in range(EXEMPLAR_BUCKETS * 3):
        s.add(10 ** 2 * 4 ** i, trace_id=f"t{i}", ts=float(i))
    assert len(s.exemplars) <= EXEMPLAR_BUCKETS
    kept_values = sorted(v for _, _, v in s.exemplars.values())
    # the survivors are the largest values (the tail), not the earliest
    assert kept_values[0] > 10 ** 2


@given(st.lists(st.tuples(st.floats(0, 1e6, allow_nan=False),
                          st.text("abcdef0123456789", min_size=4,
                                  max_size=8),
                          st.integers(1_000, 10 ** 9)),
                min_size=1, max_size=40),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_exemplars_do_not_depend_on_add_order(entries, rng):
    def build(pairs):
        s = QuantileSketch()
        for ts, tid, v in pairs:
            s.add(v, trace_id=tid, ts=ts)
        return s

    shuffled = list(entries)
    rng.shuffle(shuffled)
    assert build(shuffled).exemplars == build(entries).exemplars


def test_clear_drops_exemplars():
    s = QuantileSketch()
    s.add(42_000_000, trace_id="cafe", ts=9.5)
    s.clear()
    assert s.exemplars == {} and s.exemplar(0.99) is None


def test_openmetrics_exposition_carries_the_exemplar():
    from repro.obs.registry import registry

    reg = registry()
    reg.reset()
    try:
        for _ in range(200):
            reg.observe("delay.test_exemplar", 1_000)
        reg.observe("delay.test_exemplar", 900_000_000,
                    trace_id="deadbeefdeadbeef")
        text = openmetrics_text()
        assert 'trace_id="deadbeefdeadbeef"' in text
        parsed = parse_openmetrics(text)
        summary = parsed["summaries"]["repro_delay_test_exemplar"]
        exemplars = summary.get("exemplars") or {}
        tail = [ex for q, ex in exemplars.items() if float(q) >= 0.99]
        assert tail and any(
            ex["labels"].get("trace_id") == "deadbeefdeadbeef"
            for ex in tail)
    finally:
        reg.reset()
