"""Exposure surfaces for the always-on registry.

Three ways out of the process, all stdlib-only:

* :func:`openmetrics_text` — the registry rendered in OpenMetrics /
  Prometheus text exposition format; :func:`start_metrics_server`
  serves it on ``/metrics`` via ``http.server`` (``repro
  metrics-serve``), and :class:`MetricsFlusher` writes it (plus a JSON
  snapshot) to a file on a timer for scrape-less deployments.
* :class:`EventLog` — rotating NDJSON structured event log for
  *discrete* events that do not belong in a counter: delta-log
  overflows, refresh fallbacks, guarantee violations.  Every
  event also lands in an in-memory ring so ``repro top`` and tests can
  read recent events without a file.

Naming: registry names are dotted (``plancache.hits``); exposition
names are the same words with dots flattened to underscores and a
``repro_`` prefix (``repro_plancache_hits_total``).  Counters carry
the OpenMetrics-mandated ``_total`` suffix; sketches render as
``summary`` metrics with ``quantile`` labels plus ``_count``/``_sum``.
"""

from __future__ import annotations

import collections
import io
import json
import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Deque, Dict, List, Optional, Tuple

from .registry import registry

OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8")

#: quantiles exposed for every sketch (matches ``QuantileSketch.summary``)
QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99, 0.999)

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: label-value escaping table from the OpenMetrics text-format spec
#: (ABNF ``escaped-char``): inside double-quoted label values exactly
#: three characters are escaped, each to a two-character sequence.
_LABEL_ESCAPES: Dict[str, str] = {
    "\\": "\\\\",  # backslash      -> '\\'
    '"': '\\"',    # double quote   -> '\"'
    "\n": "\\n",   # line feed      -> '\n'
}
_LABEL_UNESCAPES = {v[1]: k for k, v in _LABEL_ESCAPES.items()}


def escape_label_value(value: str) -> str:
    """Escape a label value for exposition (backslash first, so the
    escape characters themselves never double-escape)."""
    value = value.replace("\\", "\\\\")
    value = value.replace('"', '\\"')
    return value.replace("\n", "\\n")


def unescape_label_value(value: str) -> str:
    """Invert :func:`escape_label_value`; unknown escape sequences pass
    through with the backslash dropped, per the spec's parser guidance."""
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            out.append(_LABEL_UNESCAPES.get(value[i + 1], value[i + 1]))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def metric_name(raw: str) -> str:
    """Registry name → exposition name: ``plancache.hits`` →
    ``repro_plancache_hits``."""
    name = "repro_" + _SANITIZE.sub("_", raw)
    if not _NAME_OK.match(name):  # pragma: no cover - prefix guarantees it
        name = "repro_invalid"
    return name


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return "0"


def openmetrics_text(extra_info: Optional[Dict[str, str]] = None) -> str:
    """The whole registry in OpenMetrics text format (ends in ``# EOF``).

    Includes plan-cache stats as gauges so one scrape covers the full
    namespace the issue asks for: counters, per-enumerator delay and
    per-phase latency quantiles, plan-cache/delta-refresh rates."""
    reg = registry()
    out = io.StringIO()

    if extra_info:
        labels = ",".join(
            f'{_SANITIZE.sub("_", k)}="{escape_label_value(str(v))}"'
            for k, v in sorted(extra_info.items()))
        out.write("# TYPE repro_build_info gauge\n")
        out.write(f"repro_build_info{{{labels}}} 1\n")

    snap = reg.snapshot()
    for raw in sorted(snap["counters"]):
        name = metric_name(raw)
        out.write(f"# TYPE {name} counter\n")
        out.write(f"{name}_total {snap['counters'][raw]}\n")

    for raw in sorted(snap["gauges"]):
        value = snap["gauges"][raw]
        if not isinstance(value, (int, float, bool)):
            continue
        name = metric_name(raw)
        out.write(f"# TYPE {name} gauge\n")
        out.write(f"{name} {_fmt(value)}\n")

    # plan-cache stats live on the cache object, not in the registry —
    # export them as gauges under their own prefix
    try:
        from ..core.plancache import plan_cache
        stats = plan_cache().stats()
    except Exception:  # pragma: no cover - import-order safety
        stats = {}
    for key in sorted(stats):
        name = metric_name(f"plancache_state.{key}")
        out.write(f"# TYPE {name} gauge\n")
        out.write(f"{name} {_fmt(stats[key])}\n")

    for raw, sketch in sorted(reg.sketches().items()):
        name = metric_name(raw)
        out.write(f"# TYPE {name} summary\n")
        for q in QUANTILES:
            line = f'{name}{{quantile="{q}"}} {sketch.quantile(q)!r}'
            if q >= 0.99:
                # OpenMetrics exemplar syntax: the tail quantiles carry
                # the trace_id of the most recent traced observation in
                # their bucket, so a p99 outlier links to its request
                ex = sketch.exemplar(q)
                if ex is not None:
                    ts, trace_id, value = ex
                    line += (f' # {{trace_id='
                             f'"{escape_label_value(trace_id)}"}}'
                             f' {value} {ts!r}')
            out.write(line + "\n")
        out.write(f"{name}_count {sketch.count}\n")
        out.write(f"{name}_sum {sketch.total}\n")

    out.write("# EOF\n")
    return out.getvalue()


_SAMPLE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'            # metric name
    r'(\{.*?\})?\s+(\S+)'                     # optional labels, value
    r'(?:\s+#\s+(\{.*?\})\s+(\S+)(?:\s+(\S+))?)?$')  # optional exemplar
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_labels(labelstr: Optional[str]) -> Dict[str, str]:
    if not labelstr:
        return {}
    return {k: unescape_label_value(v)
            for k, v in _LABEL.findall(labelstr)}


def parse_openmetrics(text: str) -> Dict[str, Any]:
    """Parse exposition text back into structured form.

    The inverse of :func:`openmetrics_text` for the subset this module
    emits — used by ``repro top --url`` to render a remote endpoint and
    by the exposition lint test.  Label values are unescaped per the
    spec table, so the round-trip preserves ``\\n``, ``"`` and ``\\``.
    Returns ``{"types": {name: type}, "counters": {base: value},
    "gauges": {name: value}, "summaries": {base: {"quantiles": {q: v},
    "count": n, "sum": s, "exemplars": {q: {...}}}},
    "build_info": {label: value}, "eof": bool}``.
    """
    types: Dict[str, str] = {}
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    summaries: Dict[str, Dict[str, Any]] = {}
    build_info: Dict[str, str] = {}
    saw_eof = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        m = _SAMPLE.match(line)
        if not m:
            raise ValueError(f"unparseable sample line: {line!r}")
        name, labelstr, rawval, exlabels, exval, exts = m.groups()
        value = float(rawval)
        labels = _parse_labels(labelstr)
        exemplar = None
        if exlabels is not None:
            exemplar = {"labels": _parse_labels(exlabels),
                        "value": float(exval),
                        "ts": float(exts) if exts is not None else None}
        if name == "repro_build_info":
            build_info = labels
        elif name.endswith("_total") and types.get(name[:-6]) == "counter":
            counters[name[:-6]] = value
        elif name.endswith("_count") and types.get(name[:-6]) == "summary":
            summaries.setdefault(name[:-6], {"quantiles": {}})["count"] = value
        elif name.endswith("_sum") and types.get(name[:-4]) == "summary":
            summaries.setdefault(name[:-4], {"quantiles": {}})["sum"] = value
        elif "quantile" in labels and types.get(name) == "summary":
            entry = summaries.setdefault(name, {"quantiles": {}})
            q = float(labels["quantile"])
            entry["quantiles"][q] = value
            if exemplar is not None:
                entry.setdefault("exemplars", {})[q] = exemplar
        else:
            gauges[name] = value
    return {"types": types, "counters": counters, "gauges": gauges,
            "summaries": summaries, "build_info": build_info,
            "eof": saw_eof}


# ---------------------------------------------------------------- HTTP


class _MetricsHandler(BaseHTTPRequestHandler):
    server_version = "repro-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.split("?")[0] in ("/metrics", "/"):
            body = openmetrics_text(
                getattr(self.server, "extra_info", None)).encode()
            self.send_response(200)
            self.send_header("Content-Type", OPENMETRICS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/healthz":
            body = b"ok\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_response(404)
            self.end_headers()

    def log_message(self, fmt: str, *args: Any) -> None:
        pass  # scrapes every few seconds would spam stderr


def start_metrics_server(host: str = "127.0.0.1", port: int = 9464,
                         extra_info: Optional[Dict[str, str]] = None,
                         ) -> ThreadingHTTPServer:
    """Start the ``/metrics`` endpoint on a daemon thread; returns the
    server (``.server_address`` has the bound port — pass port=0 for an
    ephemeral one; ``.shutdown()`` stops it)."""
    server = ThreadingHTTPServer((host, port), _MetricsHandler)
    server.daemon_threads = True
    server.extra_info = extra_info  # type: ignore[attr-defined]
    thread = threading.Thread(
        target=server.serve_forever, name="repro-metrics", daemon=True)
    thread.start()
    return server


# ---------------------------------------------------------------- flusher


class MetricsFlusher:
    """Periodically write the exposition text (and a JSON snapshot) to
    a file — the scrape-less variant of the HTTP endpoint.  Writes are
    atomic (tmp + rename) so readers never see a torn file."""

    def __init__(self, path: str, interval: float = 10.0) -> None:
        self.path = path
        self.interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def flush_once(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(openmetrics_text())
        os.replace(tmp, self.path)
        json_path = self.path + ".json"
        tmp = json_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(registry().snapshot(), fh, indent=2, default=str)
        os.replace(tmp, json_path)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.flush_once()
            except OSError:  # pragma: no cover - disk-full etc.
                pass

    def start(self) -> "MetricsFlusher":
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-flush", daemon=True)
        self._thread.start()
        return self

    def stop(self, final_flush: bool = True) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        if final_flush:
            self.flush_once()


# ---------------------------------------------------------------- events


class EventLog:
    """Structured discrete-event log: in-memory ring always, NDJSON
    file with size-based rotation when a path is configured.

    Rotation: when the file exceeds ``max_bytes`` it is renamed to
    ``<path>.1`` (replacing any previous ``.1``) and a fresh file is
    started — two generations bound disk use at ~2x ``max_bytes``."""

    def __init__(self, path: Optional[str] = None,
                 max_bytes: int = 4 * 1024 * 1024,
                 ring_size: int = 256) -> None:
        self.path = path
        self.max_bytes = max_bytes
        self.ring: Deque[Dict[str, Any]] = collections.deque(maxlen=ring_size)
        self._lock = threading.Lock()
        self._written = 0
        if path and os.path.exists(path):
            self._written = os.path.getsize(path)

    def emit(self, name: str, **fields: Any) -> Dict[str, Any]:
        event = {"ts": time.time(), "event": name, "pid": os.getpid()}
        event.update(fields)
        line = json.dumps(event, default=str, sort_keys=True)
        with self._lock:
            self.ring.append(event)
            if self.path:
                if self._written + len(line) + 1 > self.max_bytes:
                    self._rotate()
                try:
                    with open(self.path, "a") as fh:
                        fh.write(line + "\n")
                    self._written += len(line) + 1
                except OSError:  # pragma: no cover - disk-full etc.
                    pass
        return event

    def _rotate(self) -> None:
        try:
            os.replace(self.path, self.path + ".1")
        except OSError:  # pragma: no cover
            pass
        self._written = 0

    def recent(self, name: Optional[str] = None,
               limit: int = 50) -> List[Dict[str, Any]]:
        with self._lock:
            events = list(self.ring)
        if name is not None:
            events = [e for e in events if e["event"] == name]
        return events[-limit:]

    def clear(self) -> None:
        with self._lock:
            self.ring.clear()


_EVENT_LOG = EventLog()


def event_log() -> EventLog:
    """The process-wide event log (ring-only until configured)."""
    return _EVENT_LOG


def configure_event_log(path: Optional[str],
                        max_bytes: int = 4 * 1024 * 1024) -> EventLog:
    """Point the process event log at an NDJSON file (None → ring-only).
    Registry counter ``events.emitted`` still tracks volume either way."""
    global _EVENT_LOG
    ring = _EVENT_LOG.ring
    _EVENT_LOG = EventLog(path, max_bytes=max_bytes, ring_size=ring.maxlen)
    _EVENT_LOG.ring.extend(ring)
    return _EVENT_LOG


def emit_event(name: str, **fields: Any) -> Dict[str, Any]:
    """Emit a discrete structured event (also counts ``event.<name>``
    in the registry so rates are scrapeable)."""
    registry().count("event." + name)
    return _EVENT_LOG.emit(name, **fields)
