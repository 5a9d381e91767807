"""Tests for the Chrome trace schema lint (repro.obs.tracelint):
document shape, X-event ordering, B/E matching, the file/CLI entry
points, and the invariant that the repo's own exporter always produces
lint-clean documents.
"""

from __future__ import annotations

import json

from repro import obs
from repro.obs.export import chrome_trace
from repro.obs.tracelint import (lint_chrome_trace, lint_chrome_trace_file,
                                 main)


def _ok_doc():
    return {
        "traceEvents": [
            {"ph": "X", "name": "a", "ts": 0, "dur": 10, "pid": 1, "tid": 1,
             "args": {"rows": 3}},
            {"ph": "X", "name": "b", "ts": 5, "dur": 2, "pid": 1, "tid": 1},
        ],
        "otherData": {"tool": "repro.obs"},
    }


def test_clean_document_passes():
    assert lint_chrome_trace(_ok_doc()) == []


def test_missing_trace_events_is_fatal():
    assert lint_chrome_trace({}) == ["traceEvents missing or not a list"]
    assert lint_chrome_trace({"traceEvents": "nope"}) \
        == ["traceEvents missing or not a list"]


def test_unknown_phase_reported():
    doc = {"traceEvents": [{"ph": "Z", "name": "x"}]}
    assert any("unknown phase" in p for p in lint_chrome_trace(doc))


def test_x_events_must_be_start_ordered():
    doc = _ok_doc()
    doc["traceEvents"].reverse()  # ts 5 then ts 0
    problems = lint_chrome_trace(doc)
    assert any("must be emitted in start order" in p for p in problems)


def test_negative_ts_and_dur_reported():
    doc = {"traceEvents": [
        {"ph": "X", "name": "a", "ts": -1, "dur": 5},
        {"ph": "X", "name": "b", "ts": 0, "dur": -3},
    ]}
    problems = lint_chrome_trace(doc)
    assert any("bad ts" in p for p in problems)
    assert any("bad dur" in p for p in problems)


def test_unmatched_b_e_pairs_reported():
    doc = {"traceEvents": [
        {"ph": "B", "name": "open", "pid": 1, "tid": 1},
        {"ph": "E", "name": "wrong", "pid": 1, "tid": 1},
        {"ph": "E", "name": "stray", "pid": 1, "tid": 1},
        {"ph": "B", "name": "never_closed", "pid": 1, "tid": 2},
    ]}
    problems = lint_chrome_trace(doc)
    assert any("closes B" in p for p in problems)
    assert any("E without B" in p for p in problems)
    assert any("unclosed B" in p for p in problems)


def test_event_less_trace_with_identity_is_clean():
    # a request may have done all its work outside span scopes: a
    # document naming its producer but holding no event is clean
    doc = {"traceEvents": [], "otherData": {"tool": "repro.obs"}}
    assert lint_chrome_trace(doc) == []


def test_exporter_output_is_always_lint_clean():
    with obs.capture() as tr:
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
    assert lint_chrome_trace(chrome_trace(tr)) == []


def test_file_and_cli_entry_points(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_ok_doc()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"traceEvents": [{"ph": "Z"}]}))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")

    assert lint_chrome_trace_file(str(good)) == []
    assert lint_chrome_trace_file(str(bad))
    assert any("unreadable" in p
               for p in lint_chrome_trace_file(str(broken)))

    assert main([str(good)]) == 0
    assert "ok" in capsys.readouterr().out
    assert main([str(good), str(bad)]) == 1
    assert main([]) == 2
