"""Schema lint for exported Chrome trace-event documents.

Trace viewers are forgiving; CI should not be.  A trace that renders in
Perfetto can still be subtly wrong — duration events out of order,
unmatched ``B``/``E`` pairs from a span that never closed, or events
carrying another request's identity.  The CI observability job runs
:func:`lint_chrome_trace` over every trace the smoke steps export, so a
regression in the exporter or the trace-context plumbing fails the
build instead of a future debugging session.

The checks (each violation is one human-readable string):

* document shape — ``traceEvents`` list present, every event a dict
  with a ``ph``;
* ``X`` events — numeric ``ts``/``dur``, both non-negative, and ``ts``
  non-decreasing in list order (the order the exporter promises);
* ``B``/``E`` events — matched pairs per ``(pid, tid)`` stack, properly
  nested, nothing left open;
* trace identity — when ``otherData.trace_id`` is set, at least one
  event carries a matching ``args.trace_id``, and no event carries a
  *different* one (a foreign trace_id means contexts leaked between
  requests).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

#: phases the linter understands; anything else is reported
KNOWN_PHASES = {"X", "B", "E", "C", "M", "I", "i"}


def lint_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """All schema violations in ``doc`` (empty list = clean)."""
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    last_ts: float = float("-inf")
    open_stacks: Dict[Any, List[str]] = {}
    doc_trace_id = (doc.get("otherData") or {}).get("trace_id")
    saw_trace_id = False
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if ph == "X":
            ts, dur = ev.get("ts"), ev.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(
                    f"event {i} ({ev.get('name')!r}): bad ts {ts!r}")
                continue
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"event {i} ({ev.get('name')!r}): bad dur {dur!r}")
            if ts < last_ts:
                problems.append(
                    f"event {i} ({ev.get('name')!r}): ts {ts} before "
                    f"previous {last_ts} — X events must be emitted in "
                    f"start order")
            last_ts = max(last_ts, ts)
        elif ph in ("B", "E"):
            key = (ev.get("pid"), ev.get("tid"))
            stack = open_stacks.setdefault(key, [])
            if ph == "B":
                stack.append(ev.get("name", ""))
            elif not stack:
                problems.append(
                    f"event {i} ({ev.get('name')!r}): E without B on "
                    f"track {key}")
            else:
                opened = stack.pop()
                name = ev.get("name")
                if name is not None and name != opened:
                    problems.append(
                        f"event {i}: E {name!r} closes B {opened!r} on "
                        f"track {key}")
        arg_tid = (ev.get("args") or {}).get("trace_id")
        if arg_tid is not None:
            saw_trace_id = True
            if doc_trace_id is not None and arg_tid != doc_trace_id:
                problems.append(
                    f"event {i} ({ev.get('name')!r}): trace_id "
                    f"{arg_tid!r} != document trace_id {doc_trace_id!r}")
    for key, stack in open_stacks.items():
        if stack:
            problems.append(
                f"track {key}: {len(stack)} unclosed B event(s): {stack}")
    # an event-less trace (a request that did all its work outside span
    # scopes) is not a leak — only flag when events exist and none of
    # them carries the document's identity
    if doc_trace_id is not None and events and not saw_trace_id:
        problems.append(
            f"document trace_id {doc_trace_id!r} appears on no event")
    return problems


def lint_chrome_trace_file(path: str) -> List[str]:
    """Load ``path`` and lint it; JSON errors are violations too."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable ({exc})"]
    if not isinstance(doc, dict):
        return [f"{path}: top level is not an object"]
    return lint_chrome_trace(doc)


def main(argv: Any = None) -> int:
    """CLI entry (``python -m repro.obs.tracelint FILE...``): prints
    violations, exits non-zero when any file fails."""
    import sys
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m repro.obs.tracelint TRACE.json [...]")
        return 2
    failed = False
    for path in paths:
        problems = lint_chrome_trace_file(path)
        if problems:
            failed = True
            for p in problems:
                print(f"{path}: {p}")
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
