"""Trace-context propagation across the parallel enumeration transport.

The contract: a request's :class:`TraceContext` rides the
enumeration-chunk payloads into the worker processes, worker tracers mint spans
under the propagated identity, and the driver grafts the shipped-back
subtrees under the dispatching span.  The observable outcome — asserted
here over worker counts and data seeds — is that every worker span
carries the *root* request's ``trace_id`` and the whole fan-out
reconstructs one connected span tree (no floating worker roots), which
is exactly what makes a Chrome export of a parallel run readable as a
single request.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.planner import enumerate_answers
from repro.data import generators
from repro.engine.parallel import ParallelEngine
from repro.logic.parser import parse_cq
from repro.obs.export import chrome_trace
from repro.obs.tracelint import lint_chrome_trace

QUERY = "Q(x) :- R(x, z), S(z, y)"


def _traced_parallel_run(workers: int, seed: int):
    """One parallel evaluation under a capturing tracer; returns the
    tracer and the answers.  ``threshold=0`` makes even the small test
    database dispatch its enumeration chunks to the pool (the whole
    point is to cross the process boundary)."""
    q = parse_cq(QUERY)
    db = generators.random_database({"R": 2, "S": 2}, 50, 400, seed=seed)
    eng = ParallelEngine(workers=workers, threshold=0)
    with obs.capture() as tracer:
        answers = sorted(enumerate_answers(q, db, engine=eng))
    return tracer, answers


def _worker_spans(tracer):
    """Spans rebuilt from worker processes (their pid is stamped on
    revival; driver-side spans carry pid None)."""
    me = os.getpid()
    return [s for s in tracer.spans if s.pid is not None and s.pid != me]


@given(workers=st.sampled_from([2, 4]), seed=st.integers(0, 6))
@settings(max_examples=4, deadline=None)
def test_worker_spans_carry_root_trace_id_and_form_one_tree(workers, seed):
    tracer, answers = _traced_parallel_run(workers, seed)
    root_trace = tracer.context.trace_id

    workers_spans = _worker_spans(tracer)
    assert workers_spans, "no chunk was dispatched — the test is vacuous"
    for span in workers_spans:
        assert span.trace_id == root_trace, (
            f"worker span {span.name} carries {span.trace_id}, "
            f"not the request's {root_trace}")

    # connectivity: exactly one root among the id-stamped spans — every
    # worker subtree grafted under the driver span that dispatched it
    ids = {s.span_id for s in tracer.spans if s.span_id is not None}
    roots = [s for s in tracer.spans
             if s.span_id is not None
             and (s.parent_id is None or s.parent_id not in ids)]
    assert len(roots) == 1, (
        f"expected one connected span tree, found {len(roots)} roots: "
        f"{[s.name for s in roots]}")
    assert roots[0] is tracer.roots[0]

    # and the run still computes the right thing
    q = parse_cq(QUERY)
    db = generators.random_database({"R": 2, "S": 2}, 50, 400, seed=seed)
    assert answers == sorted(enumerate_answers(q, db, engine="tuple"))


def test_parallel_chrome_export_passes_the_lint():
    tracer, _ = _traced_parallel_run(2, seed=11)
    doc = chrome_trace(tracer)
    assert doc["otherData"]["trace_id"] == tracer.context.trace_id
    assert lint_chrome_trace(doc) == []
    # worker events reached the export with the request identity
    args_ids = {(e.get("args") or {}).get("trace_id")
                for e in doc["traceEvents"]}
    assert tracer.context.trace_id in args_ids


def test_unsampled_context_ships_no_ids(monkeypatch):
    """REPRO_TRACE_SAMPLE=0: the request rolls unsampled, so neither
    driver nor worker spans get identity stamped (all-or-nothing head
    sampling), but evaluation and span *timing* still work."""
    monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0")
    tracer, answers = _traced_parallel_run(2, seed=3)
    assert answers  # the run itself is unaffected
    assert tracer.context is not None and not tracer.context.sampled
    assert all(s.trace_id is None and s.span_id is None
               for s in tracer.spans)


@pytest.mark.parametrize("workers", [2])
def test_explicit_context_wins_over_fresh_mint(workers):
    """A caller-supplied context (explicit-propagation API) is the one
    that reaches the workers, not a fresh mint."""
    from repro.obs.trace import TraceContext, Tracer

    ctx = TraceContext("feedfacefeedface", sampled=True)
    q = parse_cq(QUERY)
    db = generators.random_database({"R": 2, "S": 2}, 50, 400, seed=5)
    eng = ParallelEngine(workers=workers, threshold=0)
    with obs.capture(Tracer(context=ctx)) as tracer:
        list(enumerate_answers(q, db, engine=eng))
    spans = _worker_spans(tracer)
    assert spans and all(s.trace_id == "feedfacefeedface" for s in spans)
