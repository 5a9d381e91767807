"""The observatory dashboard: benchmark history rendered as one
self-contained HTML file (inline SVG, no external assets or scripts).

``repro report -o report.html`` reads ``benchmarks/history/*.jsonl`` and
emits, per benchmark case:

* a **trajectory chart** — the headline measurement (metric value at the
  largest size) across runs, with the rolling-baseline median and the
  regression threshold drawn as reference lines, so a slowdown is
  visible as a point leaving the band;
* a **scaling chart** — the latest run's size sweep on log-log axes with
  the fitted slope line and its CI, the visual form of the verdict;
* the **verdict badge** (measured vs expected shape) and a regression
  badge when the latest run trips the gate;
* the underlying numbers as a table (the accessibility/table view).

Charts follow the repo's dataviz conventions: one series per chart,
recessive hairline grid, status colors reserved for verdict/regression
state and always paired with a text label, light and dark palettes from
the same ramp.
"""

from __future__ import annotations

import html
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.observatory import (
    BASELINE_N,
    MIN_BAND,
    Observatory,
    Regression,
    headline,
)

# palette (validated defaults; swapped wholesale for dark mode in CSS)
_CSS = """
:root { color-scheme: light dark; }
.obs-root {
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --series: #2a78d6; --fit: #898781;
  --good: #0ca30c; --warning: #fab219; --critical: #d03b3b;
  --band: rgba(250, 178, 25, 0.12);
  --border: rgba(11, 11, 11, 0.10);
  background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  margin: 0; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  .obs-root {
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --series: #3987e5; --fit: #898781;
    --band: rgba(250, 178, 25, 0.10);
    --border: rgba(255, 255, 255, 0.10);
  }
}
.obs-root h1 { font-size: 20px; margin: 0 0 4px; }
.obs-root h2 { font-size: 16px; margin: 28px 0 8px; }
.obs-root .sub { color: var(--ink-2); margin: 0 0 20px; }
.card {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px; margin: 0 0 14px;
}
.card-head { display: flex; flex-wrap: wrap; align-items: baseline;
             gap: 10px; margin-bottom: 6px; }
.card-head .case { font-weight: 600; }
.card-head .fitline { color: var(--ink-2); font-size: 13px; }
.badge {
  display: inline-block; padding: 1px 8px; border-radius: 10px;
  font-size: 12px; font-weight: 600; border: 1px solid var(--border);
}
.badge-ok { color: var(--good); }
.badge-mismatch { color: var(--critical); }
.badge-inconclusive { color: var(--muted); }
.badge-regression { color: var(--warning); }
.charts { display: flex; flex-wrap: wrap; gap: 18px; }
.chart-title { font-size: 12px; color: var(--ink-2); margin: 0 0 2px; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif;
           fill: var(--muted); }
svg .lbl { fill: var(--ink-2); }
details { margin-top: 8px; }
summary { color: var(--ink-2); font-size: 13px; cursor: pointer; }
table { border-collapse: collapse; font-size: 12px; margin-top: 6px; }
th, td { padding: 2px 10px 2px 0; text-align: right;
         font-variant-numeric: tabular-nums; }
th { color: var(--muted); font-weight: 500; }
td:first-child, th:first-child { text-align: left; }
.footer { color: var(--muted); font-size: 12px; margin-top: 24px; }
"""

_W, _H = 420, 190
_ML, _MR, _MT, _MB = 58, 12, 14, 30  # margins


def _fmt_value(value: Optional[float], metric: str) -> str:
    if value is None:
        return "—"
    if metric.endswith("_seconds"):
        if value <= 0:
            return "0s"
        if value < 1e-3:
            return f"{value * 1e6:.3g}µs"
        if value < 1.0:
            return f"{value * 1e3:.3g}ms"
        return f"{value:.3g}s"
    return f"{value:.4g}"


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


def _poly(points: Sequence[Tuple[float, float]]) -> str:
    return " ".join(f"{x:.1f},{y:.1f}" for x, y in points)


def _svg_open(width: int = _W, height: int = _H) -> List[str]:
    return [f'<svg viewBox="0 0 {width} {height}" width="{width}" '
            f'height="{height}" role="img">']


def _grid_lines(ys: Sequence[float], labels: Sequence[str]) -> List[str]:
    parts = []
    for y, label in zip(ys, labels):
        parts.append(f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" '
                     f'y2="{y:.1f}" stroke="var(--grid)" '
                     f'stroke-width="1"/>')
        parts.append(f'<text x="{_ML - 6}" y="{y + 3.5:.1f}" '
                     f'text-anchor="end">{_esc(label)}</text>')
    return parts


def trajectory_svg(runs: Sequence[Dict[str, Any]],
                   regression: Optional[Regression]) -> str:
    """Headline value per run, with baseline median and gate threshold."""
    metric = runs[-1]["metric"]
    values = [headline(r) for r in runs]
    refs = [v for v in values if v > 0]
    top_candidates = values[:]
    if regression and regression.threshold:
        top_candidates.append(regression.threshold)
    top = max(top_candidates) * 1.12 or 1.0
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(i: int) -> float:
        if len(values) == 1:
            return _ML + plot_w / 2
        return _ML + plot_w * i / (len(values) - 1)

    def sy(v: float) -> float:
        return _MT + plot_h * (1 - v / top)

    parts = _svg_open()
    grid_vals = [0.0, top / 2, top]
    parts += _grid_lines([sy(v) for v in grid_vals],
                         [_fmt_value(v, metric) for v in grid_vals])
    # rolling baseline + gate threshold (the regression band)
    if regression and regression.baseline is not None:
        by, ty = sy(regression.baseline), sy(regression.threshold)
        parts.append(f'<rect x="{_ML}" y="{ty:.1f}" width="{plot_w}" '
                     f'height="{max(by - ty, 0):.1f}" fill="var(--band)"/>')
        parts.append(f'<line x1="{_ML}" y1="{by:.1f}" x2="{_W - _MR}" '
                     f'y2="{by:.1f}" stroke="var(--axis)" '
                     f'stroke-width="1" stroke-dasharray="5 4"/>')
        parts.append(f'<line x1="{_ML}" y1="{ty:.1f}" x2="{_W - _MR}" '
                     f'y2="{ty:.1f}" stroke="var(--warning)" '
                     f'stroke-width="1" stroke-dasharray="2 3"/>')
        parts.append(f'<text x="{_W - _MR}" y="{ty - 4:.1f}" '
                     f'text-anchor="end">gate</text>')
    # the series
    pts = [(sx(i), sy(v)) for i, v in enumerate(values)]
    if len(pts) > 1:
        parts.append(f'<polyline points="{_poly(pts)}" fill="none" '
                     f'stroke="var(--series)" stroke-width="2" '
                     f'stroke-linejoin="round"/>')
    flagged = bool(regression and regression.flagged)
    for i, ((x, y), run) in enumerate(zip(pts, runs)):
        last = i == len(pts) - 1
        fill = ("var(--critical)" if (last and flagged)
                else "var(--series)")
        prov = run.get("provenance", {})
        tip = (f"run {i + 1}/{len(runs)} — "
               f"{_fmt_value(values[i], metric)} at n="
               f"{max(p['n'] for p in run['points'])} | "
               f"{prov.get('timestamp', '?')} | "
               f"git {prov.get('git_sha', '?')} | "
               f"engine {prov.get('engine', '?')}")
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" '
                     f'r="{4.5 if last else 3.5}" fill="{fill}" '
                     f'stroke="var(--surface)" stroke-width="2">'
                     f'<title>{_esc(tip)}</title></circle>')
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" '
                 f'y2="{_H - _MB}" stroke="var(--axis)" stroke-width="1"/>')
    parts.append(f'<text x="{_ML}" y="{_H - 8}">run 1</text>')
    parts.append(f'<text x="{_W - _MR}" y="{_H - 8}" text-anchor="end">'
                 f'run {len(values)}</text>')
    parts.append("</svg>")
    return "".join(parts)


def loglog_svg(record: Dict[str, Any]) -> str:
    """The latest size sweep on log-log axes with the fitted slope."""
    metric = record["metric"]
    points = sorted(record["points"], key=lambda p: p["n"])
    floor = 1e-9
    xs = [math.log10(p["n"]) for p in points if p["n"] > 0]
    ys = [math.log10(max(p["value"], floor)) for p in points if p["n"] > 0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 0.5:  # keep flat series visually flat, not zoomed
        mid = (y_hi + y_lo) / 2
        y_lo, y_hi = mid - 0.75, mid + 0.75
    pad_x = 0.06 * (x_hi - x_lo)
    pad_y = 0.12 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y: float) -> float:
        return _MT + plot_h * (1 - (y - y_lo) / (y_hi - y_lo))

    parts = _svg_open()
    # decade gridlines on y
    y_ticks = range(math.ceil(y_lo), math.floor(y_hi) + 1)
    parts += _grid_lines([sy(t) for t in y_ticks],
                         [_fmt_value(10.0 ** t, metric) for t in y_ticks])
    # decade ticks on x
    for t in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        parts.append(f'<line x1="{sx(t):.1f}" y1="{_MT}" '
                     f'x2="{sx(t):.1f}" y2="{_H - _MB}" '
                     f'stroke="var(--grid)" stroke-width="1"/>')
        parts.append(f'<text x="{sx(t):.1f}" y="{_H - 8}" '
                     f'text-anchor="middle">1e{t}</text>')
    fit = record.get("fit")
    if fit and fit.get("slope") is not None:
        fy0 = fit["intercept"] + fit["slope"] * x_lo
        fy1 = fit["intercept"] + fit["slope"] * x_hi
        parts.append(f'<line x1="{sx(x_lo):.1f}" y1="{sy(fy0):.1f}" '
                     f'x2="{sx(x_hi):.1f}" y2="{sy(fy1):.1f}" '
                     f'stroke="var(--fit)" stroke-width="1.5" '
                     f'stroke-dasharray="6 4"/>')
        label = f"slope {fit['slope']:.2f}"
        if fit.get("ci_low") is not None:
            label += f" [{fit['ci_low']:.2f}, {fit['ci_high']:.2f}]"
        parts.append(f'<text x="{_W - _MR}" y="{_MT + 10}" '
                     f'text-anchor="end" class="lbl">{_esc(label)}</text>')
    for p, x, y in zip(points, xs, ys):
        tip = f"n={p['n']}: {_fmt_value(p['value'], metric)}"
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" '
                     f'fill="var(--series)" stroke="var(--surface)" '
                     f'stroke-width="2"><title>{_esc(tip)}</title>'
                     f'</circle>')
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" '
                 f'y2="{_H - _MB}" stroke="var(--axis)" stroke-width="1"/>')
    parts.append("</svg>")
    return "".join(parts)


def _verdict_badge(record: Dict[str, Any]) -> str:
    verdict = record.get("verdict", "inconclusive")
    ok = record.get("verdict_ok")
    if verdict == "inconclusive" or ok is None:
        cls, mark = "badge-inconclusive", "?"
    elif ok:
        cls, mark = "badge-ok", "✓"
    else:
        cls, mark = "badge-mismatch", "✗"
    expected = record.get("expectation")
    tail = f" (expected {expected})" if expected else ""
    return (f'<span class="badge {cls}">{mark} {_esc(verdict)}'
            f'{_esc(tail)}</span>')


def _case_table(record: Dict[str, Any]) -> str:
    metric = record["metric"]
    extra_keys: List[str] = []
    for key in ("preprocessing_seconds", "delay_p95_seconds",
                "delay_p99_seconds", "delay_p999_seconds",
                "throughput_per_s", "outputs"):
        if key != metric and any(key in p for p in record["points"]):
            extra_keys.append(key)
    head = "".join(f"<th>{_esc(k)}</th>"
                   for k in ["n", metric] + extra_keys)
    rows = []
    for p in sorted(record["points"], key=lambda q: q["n"]):
        cells = [f"<td>{p['n']}</td>",
                 f"<td>{_fmt_value(p['value'], metric)}</td>"]
        for key in extra_keys:
            value = p.get(key)
            if isinstance(value, (int, float)) and not isinstance(value,
                                                                  bool):
                cells.append(f"<td>{_fmt_value(value, key)}</td>")
            else:
                cells.append("<td>—</td>")
        rows.append("<tr>" + "".join(cells) + "</tr>")
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>")


def _case_card(suite: str, case: str, runs: Sequence[Dict[str, Any]],
               regression: Optional[Regression]) -> str:
    latest = runs[-1]
    fit = latest.get("fit") or {}
    fitline = ""
    if fit.get("slope") is not None:
        fitline = (f"slope {fit['slope']:.2f}"
                   + (f" [{fit['ci_low']:.2f}, {fit['ci_high']:.2f}]"
                      if fit.get("ci_low") is not None else "")
                   + f" over {len(latest['points'])} sizes"
                   + f" · {len(runs)} run{'s' if len(runs) != 1 else ''}")
    badges = [_verdict_badge(latest)]
    if regression and regression.flagged:
        badges.append(f'<span class="badge badge-regression">▲ regression '
                      f'x{regression.ratio:.2f} vs baseline</span>')
    return f"""
<div class="card">
  <div class="card-head">
    <span class="case">{_esc(case)}</span>
    {' '.join(badges)}
    <span class="fitline">{_esc(latest["metric"])} · {_esc(fitline)}</span>
  </div>
  <div class="charts">
    <div><p class="chart-title">trajectory (headline at largest n, per
      run)</p>{trajectory_svg(runs, regression)}</div>
    <div><p class="chart-title">latest scaling sweep (log-log)</p>
      {loglog_svg(latest)}</div>
  </div>
  <details><summary>latest run data</summary>{_case_table(latest)}
  </details>
</div>"""


def render_dashboard(observatory: Observatory,
                     baseline_n: int = BASELINE_N,
                     min_band: float = MIN_BAND,
                     title: str = "Complexity observatory") -> str:
    """The full dashboard HTML for one history directory."""
    cases = observatory.cases()
    regressions = {(r.suite, r.case): r
                   for r in observatory.regressions(
                       baseline_n=baseline_n, min_band=min_band)}
    sections: List[str] = []
    total_runs = sum(len(runs) for runs in cases.values())
    flagged = [r for r in regressions.values() if r.flagged]
    mismatched = [runs[-1] for runs in cases.values()
                  if runs[-1].get("verdict_ok") is False]
    by_suite: Dict[str, List[Tuple[str, List[Dict[str, Any]]]]] = {}
    for (suite, case), runs in sorted(cases.items()):
        by_suite.setdefault(suite, []).append((case, runs))
    for suite, case_list in sorted(by_suite.items()):
        sections.append(f"<h2>suite: {_esc(suite)}</h2>")
        for case, runs in case_list:
            sections.append(_case_card(
                suite, case, runs, regressions.get((suite, case))))
    latest_prov: Dict[str, Any] = {}
    for runs in cases.values():
        prov = runs[-1].get("provenance", {})
        if prov.get("timestamp", "") >= latest_prov.get("timestamp", ""):
            latest_prov = prov
    sub = (f"{len(cases)} cases · {total_runs} recorded runs · "
           f"{len(flagged)} regression flag{'s' if len(flagged) != 1 else ''}"
           f" · {len(mismatched)} verdict mismatch"
           f"{'es' if len(mismatched) != 1 else ''}")
    provline = ""
    if latest_prov:
        provline = (f"latest run: {latest_prov.get('timestamp', '?')} · git "
                    f"{latest_prov.get('git_sha', '?')} · python "
                    f"{latest_prov.get('python', '?')} · "
                    f"{latest_prov.get('platform', '?')} · engine "
                    f"{latest_prov.get('engine', '?')}")
    if not cases:
        sections.append('<div class="card">history is empty — run '
                        '<code>repro bench</code> first</div>')
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{_CSS}</style>
</head>
<body class="obs-root">
<h1>{_esc(title)}</h1>
<p class="sub">{_esc(sub)}<br>{_esc(provline)}</p>
{''.join(sections)}
<p class="footer">Verdicts compare the fitted log-log slope CI against
the shape the classifier predicts (constant delay for free-connex ACQs,
Theorem 4.6; linear total time for acyclic evaluation, Theorem 4.2;
superlinear for conditional lower-bound instances, Theorems 4.8/4.9).
The shaded band is the regression gate: rolling median of the last
{baseline_n} runs plus the noise band.</p>
</body>
</html>
"""


_ANALYZE_STATUS_CLS = {"ok": "badge-ok", "FLAG": "badge-mismatch",
                       "info": "badge-inconclusive"}


def render_analyze_html(analysis: Dict[str, Any],
                        title: str = "repro analyze") -> str:
    """The ``repro analyze --html`` panel: one card of estimated-vs-
    actual operator rows (the data dict from
    :func:`repro.obs.analyze.analyze`), sharing the dashboard's CSS so
    the two reports sit side by side visually."""
    facts = "".join(f", {k}={v}" for k, v in analysis["facts"].items())
    meta_rows = [
        ("query", analysis["query"]),
        ("class", f"{analysis['query_class']}{facts}"),
        ("sizes", " → ".join(str(s) for s in analysis["sizes"])),
        ("answers", " → ".join(str(a) for a in analysis["answers"])),
    ]
    meta = "".join(f"<tr><th>{_esc(k)}</th>"
                   f"<td style='text-align:left'>{_esc(v)}</td></tr>"
                   for k, v in meta_rows)
    rows = []
    for r in analysis["rows"]:
        cls = _ANALYZE_STATUS_CLS.get(r["status"], "badge-inconclusive")
        rows.append(
            f"<tr><td>{_esc(r['operator'])}</td>"
            f"<td style='text-align:left'>{_esc(r['expected'])}</td>"
            f"<td style='text-align:left'>{_esc(r['actual'])}</td>"
            f"<td><span class='badge {cls}'>{_esc(r['status'])}</span></td>"
            f"<td style='text-align:left'>{_esc(r['note'])}</td></tr>")
    flagged = analysis["flagged"]
    if flagged:
        summary = (f'<span class="badge badge-mismatch">✗ '
                   f'{len(flagged)} operator(s) contradict the predicted '
                   f'class: {_esc(", ".join(flagged))}</span>')
    else:
        summary = ('<span class="badge badge-ok">✓ all operators within '
                   'their predicted class</span>')
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{_CSS}</style>
</head>
<body class="obs-root">
<h1>{_esc(title)}</h1>
<p class="sub">estimated vs actual, per operator — expectations from the
classifier (Theorems 4.2/4.6), actuals from span attributes and the
recorded block delays</p>
<div class="card">
  <table>{meta}</table>
</div>
<div class="card">
  <div class="card-head">{summary}</div>
  <table>
    <thead><tr><th>operator</th><th>expected</th><th>actual</th>
    <th>status</th><th>note</th></tr></thead>
    <tbody>{''.join(rows)}</tbody>
  </table>
</div>
</body>
</html>
"""


def write_analyze_html(path: str, analysis: Dict[str, Any]) -> str:
    """Render :func:`render_analyze_html` to ``path``."""
    with open(path, "w") as fh:
        fh.write(render_analyze_html(analysis))
    return path


def write_dashboard(path: str, history_dir: str,
                    baseline_n: int = BASELINE_N,
                    min_band: float = MIN_BAND
                    ) -> Tuple[str, List[Regression]]:
    """Render the dashboard for ``history_dir`` to ``path``; returns the
    path and the per-case regression standings (for the gate)."""
    observatory = Observatory(history_dir)
    html_text = render_dashboard(observatory, baseline_n=baseline_n,
                                 min_band=min_band)
    with open(path, "w") as fh:
        fh.write(html_text)
    return path, observatory.regressions(baseline_n=baseline_n,
                                         min_band=min_band)
