"""Tests for the observability layer (repro.obs): span nesting,
Chrome-trace schema validity, counter accuracy on a known join, and
no-op-tracer parity."""

import json
import threading

import pytest

from repro import obs
from repro.core.plancache import PlanCache, clear_plan_cache, plan_cache
from repro.core.planner import count, enumerate_answers
from repro.data.generators import random_database
from repro.engine import use_engine
from repro.logic.parser import parse_cq, parse_query
from repro.obs.export import chrome_trace, metrics_dump, render_explain
from repro.obs.trace import NULL_SPAN_CONTEXT, NULL_TRACER, Tracer
from tests.conftest import at_block_size


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_plan_cache()
    yield
    clear_plan_cache()
    obs.disable()


FULL_QUERY = "Q(x, z, y) :- R(x, z), S(z, y)"


def _demo_db(n=200, seed=1):
    return random_database({"R": 2, "S": 2}, domain_size=50,
                           tuples_per_relation=n, seed=seed)


# ------------------------------------------------------------------ spans


def test_span_nesting_and_ordering():
    t = Tracer()
    with t.span("a") as a:
        with t.span("b"):
            pass
        with t.span("c", tag="v") as c:
            c.set("extra", 3)
    assert [s.name for s in t.roots] == ["a"]
    assert [s.name for s in a.children] == ["b", "c"]
    b, c = a.children
    assert a.start_ns <= b.start_ns <= b.end_ns <= c.start_ns <= c.end_ns
    assert c.end_ns <= a.end_ns
    assert c.attrs == {"tag": "v", "extra": 3}
    assert a.duration_ns >= b.duration_ns + c.duration_ns


def test_span_out_of_order_end():
    # generator-style usage: an inner span can outlive its opener's scope
    t = Tracer()
    outer = t.span("outer")
    inner = t.span("inner")
    outer.__enter__()
    inner.__enter__()
    outer.__exit__(None, None, None)
    inner.__exit__(None, None, None)
    assert [s.name for s in t.roots] == ["outer"]
    assert [s.name for s in t.roots[0].children] == ["inner"]
    assert all(s.end_ns is not None for s in t.spans)


def test_sibling_spans_do_not_nest():
    t = Tracer()
    with t.span("a"):
        pass
    with t.span("b"):
        pass
    assert [s.name for s in t.roots] == ["a", "b"]


def test_counters_and_gauges():
    t = Tracer()
    t.count("hits")
    t.count("hits", 4)
    t.gauge("size", 17)
    assert t.counters["hits"] == 5
    assert t.gauges["size"] == 17
    assert t.events >= 3


# ----------------------------------------------------------- chrome trace


def test_chrome_trace_schema():
    with obs.capture() as t:
        list(enumerate_answers(parse_cq(FULL_QUERY), _demo_db()))
    doc = chrome_trace(t)
    # round-trips through json and has the documented shape
    doc = json.loads(json.dumps(doc))
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert events
    complete = [e for e in events if e["ph"] == "X"]
    counters = [e for e in events if e["ph"] == "C"]
    assert complete and counters
    for e in complete:
        assert isinstance(e["name"], str)
        assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0
        assert isinstance(e["dur"], (int, float)) and e["dur"] >= 0
        assert "pid" in e and "tid" in e
    # child events lie within their parent's interval (planner.enumerate
    # encloses everything in this single-query run)
    root = next(e for e in complete if e["name"] == "planner.enumerate")
    for e in complete:
        assert e["ts"] >= root["ts"] - 1e-3
        assert e["ts"] + e["dur"] <= root["ts"] + root["dur"] + 1e-3


def test_write_chrome_trace(tmp_path):
    path = tmp_path / "trace.json"
    with obs.capture() as t:
        with obs.span("only"):
            pass
    obs.write_chrome_trace(str(path), t)
    doc = json.loads(path.read_text())
    assert any(e["name"] == "only" for e in doc["traceEvents"])


# ------------------------------------------------------- counter accuracy


def test_counter_accuracy_two_atom_join():
    """Exact kernel/cache counts for a cold then warm free-connex run of
    a full 2-atom join on the columnar backend."""
    q = parse_cq(FULL_QUERY)
    db = _demo_db()
    with use_engine("columnar"):
        clear_plan_cache()
        with obs.capture() as cold:
            cold_answers = list(enumerate_answers(q, db))
        with obs.capture() as warm:
            warm_answers = list(enumerate_answers(q, db))
    assert cold_answers == warm_answers and cold_answers
    # cold: one miss each for the free_connex plan and the full_reducer
    # it runs inside; the full reducer's two semijoins, and no second
    # pass over the derived join, which is already globally consistent
    assert cold.counters["plancache.misses"] == 2
    assert "plancache.hits" not in cold.counters
    assert cold.counters["kernel.semijoin"] == 2
    assert cold.counters["kernel.materialise_atom"] == 2
    assert cold.counters["enum.answers"] == len(cold_answers)
    # warm: the cached plan is reused — no rebuild, no kernel calls
    assert warm.counters["plancache.hits"] == 1
    assert "plancache.misses" not in warm.counters
    assert "kernel.semijoin" not in warm.counters
    assert warm.counters["enum.answers"] == len(warm_answers)


def test_semijoin_spans_carry_cardinalities():
    q = parse_cq(FULL_QUERY)
    with obs.capture() as t:
        list(enumerate_answers(q, _demo_db()))
    semis = [s for s in t.spans if s.name == "yannakakis.semijoin"]
    assert len(semis) == 2
    phases = {s.attrs["phase"] for s in semis}
    assert phases == {"bottom_up", "top_down"}
    for s in semis:
        assert s.attrs["out"] <= max(s.attrs["in_left"], s.attrs["in_right"])


# ----------------------------------------------------------------- delays


def test_delay_records_raw_pairs_on_the_tracer():
    """One ``obs.delay`` per block: the tracer keeps the raw
    ``(gap_ns, answers)`` pair and grows both counters in one event;
    with tracing off the call is a no-op."""
    obs.delay(10_000, answers=10)
    with obs.capture() as t:
        obs.delay(10_000, answers=10)
        obs.delay(3_000, answers=1)
    assert t.delays == [(10_000, 10), (3_000, 1)]
    assert t.counters == {"enum.blocks": 2, "enum.answers": 11}
    assert t.events == 2


@pytest.mark.parametrize("block_size", [1, 7, 1024])
@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_delay_pairs_sum_to_the_answer_count(engine, block_size):
    """``enum.answers`` is the answer count, and the recorded pairs
    cover every answer once: columnar blocks ramp from 64 answers,
    doubling up to B, then hold exactly B until a shorter tail, and the
    tuple engine's probe join, which has no native blocks, records one
    pair per 256 answers whatever B is."""
    q = parse_cq(FULL_QUERY)
    db = _demo_db(n=600, seed=3)
    with at_block_size(block_size), obs.capture() as t:
        answers = sum(1 for _ in enumerate_answers(q, db, engine=engine))
    sizes = [n for _gap, n in t.delays]
    assert answers > 256
    if engine == "tuple":
        ramp, stride = [], 256
    else:
        ramp = [64, 128, 256, 512] if block_size == 1024 else []
        stride = block_size
    assert answers > sum(ramp) + stride
    assert sum(sizes) == answers == t.counters["enum.answers"]
    assert len(sizes) == t.counters["enum.blocks"]
    full, tail = divmod(answers - sum(ramp), stride)
    assert sizes == ramp + [stride] * full + ([tail] if tail else [])
    assert all(gap >= 0 for gap, _n in t.delays)


def test_tracing_off_tuple_scan_reads_the_clock_less_than_once_per_answer(
        monkeypatch):
    """With tracing off the tuple engine's probe join records no
    delays, so a full scan of N answers reads ``perf_counter_ns`` fewer
    than N times (the recording stride reads it twice per answer)."""
    import time

    q = parse_cq(FULL_QUERY)
    db = _demo_db(n=600, seed=3)
    reads = {"n": 0}
    clock = time.perf_counter_ns

    def counting_clock():
        reads["n"] += 1
        return clock()

    monkeypatch.setattr(time, "perf_counter_ns", counting_clock)
    answers = sum(1 for _ in enumerate_answers(q, db, engine="tuple"))
    assert answers > 256
    assert reads["n"] < answers


def test_count_pipeline_traced():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    with obs.capture() as t:
        n = count(q, _demo_db())
    names = {s.name for s in t.spans}
    assert "planner.count" in names
    assert "count.acq" in names
    assert "count.message_passing" in names
    assert n >= 0


def test_enumerator_phase_spans():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    with obs.capture() as t:
        answers = list(enumerate_answers(q, _demo_db()))
    names = [s.name for s in t.spans]
    pre = names.index("FreeConnexEnumerator.preprocess")
    enum = names.index("FreeConnexEnumerator.enumerate")
    assert pre < enum
    enum_span = t.spans[enum]
    assert enum_span.attrs["answers"] == len(answers)


# ----------------------------------------------------------- no-op parity


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_noop_tracer_parity(engine):
    """Tracing must not change any answer; the disabled path records
    nothing."""
    q = parse_query("Q(x, y) :- R(x, z), S(z, y)")
    db = _demo_db(n=150, seed=3)
    with use_engine(engine):
        clear_plan_cache()
        plain = list(enumerate_answers(q, db))
        clear_plan_cache()
        with obs.capture() as t:
            traced = list(enumerate_answers(q, db))
    assert plain == traced
    assert t.spans  # the traced run recorded something
    assert not obs.enabled()
    assert obs.tracer() is NULL_TRACER
    assert NULL_TRACER.counters == {} and NULL_TRACER.spans == []


def test_null_tracer_is_inert():
    before = dict(NULL_TRACER.counters)
    with obs.span("ignored", k=1) as sp:
        sp.set("also", "ignored")
    obs.count("nothing", 5)
    obs.gauge("nothing", 5)
    assert NULL_TRACER.counters == before == {}
    assert NULL_TRACER.events == 0


def test_span_feeds_tracer_when_enabled_null_context_otherwise():
    with obs.capture() as tr:
        with obs.span("only.in.tracer"):
            pass
    assert [s.name for s in tr.spans] == ["only.in.tracer"]
    assert obs.span("x", a=1) is NULL_SPAN_CONTEXT


# -------------------------------------------------------------- metrics


def test_metrics_dump_shape():
    with obs.capture() as t:
        list(enumerate_answers(parse_cq(FULL_QUERY), _demo_db()))
    m = metrics_dump(t)
    json.dumps(m)
    assert m["counters"]["plancache.misses"] == 2
    assert m["gauges"]["timer_overhead_ns"] >= 0
    pc = m["plan_cache"]
    for key in ("hits", "misses", "evictions", "entries", "maxsize"):
        assert key in pc
    assert "registry" not in m


def test_plan_cache_eviction_counter():
    cache = PlanCache(maxsize=1)
    cache.put(("a",), 1)
    cache.put(("b",), 2)
    assert cache.evictions == 1
    st = cache.stats()
    assert st["evictions"] == 1
    cache.clear()
    assert cache.stats()["evictions"] == 0


def test_global_cache_eviction_in_stats():
    st = plan_cache().stats()
    assert "evictions" in st


def test_render_explain_mentions_phases():
    with obs.capture() as t:
        list(enumerate_answers(parse_cq(FULL_QUERY), _demo_db()))
    text = render_explain(t)
    assert "FreeConnexEnumerator.preprocess" in text
    assert "FreeConnexEnumerator.enumerate" in text
    assert "plan cache:" in text
    assert "plancache.misses" in text


# --------------------------------------------------- timer thread-safety


def test_timer_overhead_thread_safe():
    from repro.perf import delay

    delay.timer_overhead_ns(recalibrate=True)
    results = []

    def worker():
        results.append(delay.timer_overhead_ns())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(results) == 8
    assert all(isinstance(r, int) and r >= 0 for r in results)
    assert len(set(results)) == 1  # all threads saw the published value


def test_capture_restores_previous_tracer():
    outer = obs.enable()
    try:
        with obs.capture() as inner:
            assert obs.tracer() is inner
            assert inner is not outer
        assert obs.tracer() is outer
    finally:
        obs.disable()


# ------------------------------------------------------------- request tree

TREE_QUERY = "Q(x) :- R(x, z), S(z, y)"


def test_sampled_spans_form_one_request_tree():
    """Every span a traced request records hangs under one root through
    ``Span.children``, and the Chrome export lints clean."""
    from repro.obs.tracelint import lint_chrome_trace

    with obs.capture() as tracer:
        list(enumerate_answers(parse_cq(TREE_QUERY), _demo_db(400, 11),
                               engine="columnar"))
    assert tracer.spans
    assert len(tracer.roots) == 1
    reached, stack = [], list(tracer.roots)
    while stack:
        span = stack.pop()
        reached.append(span)
        stack.extend(span.children)
    assert sorted(map(id, reached)) == sorted(map(id, tracer.spans))
    assert lint_chrome_trace(chrome_trace(tracer)) == []
