"""In-memory span recorder for the traced benchmark run.

The benchmark records a span around each call it makes into one of the
program's layers; no span comes from inside the program.  Spans stay in
memory and are written once, at the end of the run, as Chrome
trace-event JSON (load it in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

REQUEST = "request"


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name: str, start: int, parent: Optional[int],
                 request: Optional[int], attrs: Dict[str, Any]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs = attrs

    @property
    def dur(self) -> int:
        return self.end - self.start


class Recorder:
    """Spans with name, start and end (``perf_counter_ns``), parent span
    and request id.  :meth:`request` opens a request's root span; spans
    opened inside it inherit the request id."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._request: Optional[int] = None

    @contextmanager
    def span(self, name: str, request: Optional[int] = None,
             **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Time the body; yields the span's attribute dict so the body
        can record counts (rows, answers) at the same boundary."""
        sp = Span(name, 0, self._stack[-1] if self._stack else None,
                  self._request if request is None else request, attrs)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter_ns()
        try:
            yield sp.attrs
        finally:
            sp.end = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def request(self, rid: int) -> Iterator[Dict[str, Any]]:
        self._request = rid
        try:
            with self.span(REQUEST) as attrs:
                yield attrs
        finally:
            self._request = None

    def per_request(self, name: str, attr: Optional[str] = None
                    ) -> Dict[int, float]:
        """Per request id: total duration (ns) of the spans called
        ``name``, or the total of their attribute ``attr``."""
        out: Dict[int, float] = {}
        for sp in self.spans:
            if sp.name == name and sp.request is not None:
                v = sp.dur if attr is None else sp.attrs.get(attr, 0)
                out[sp.request] = out.get(sp.request, 0) + v
        return out

    def unattributed(self) -> Dict[int, int]:
        """Per request: root span duration minus its direct children."""
        roots = {i: sp for i, sp in enumerate(self.spans)
                 if sp.name == REQUEST}
        out = {sp.request: sp.dur for sp in roots.values()}
        for sp in self.spans:
            if sp.parent in roots:
                out[sp.request] -= sp.dur
        return out

    def chrome_trace(self) -> Dict[str, Any]:
        t0 = self.spans[0].start if self.spans else 0
        events = []
        for sp in self.spans:
            args = dict(sp.attrs)
            args["request"] = sp.request
            if sp.parent is not None:
                args["parent"] = self.spans[sp.parent].name
            events.append({"name": sp.name, "ph": "X", "pid": 1, "tid": 1,
                           "ts": (sp.start - t0) / 1e3,
                           "dur": sp.dur / 1e3, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
