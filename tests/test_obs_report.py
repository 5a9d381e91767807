"""Dashboard rendering (:mod:`repro.obs.report`) against synthetic
history."""

import pytest

from repro.obs.observatory import PROVENANCE_KEYS, Observatory, \
    make_record
from repro.obs.report import render_dashboard, trajectory_svg, \
    write_dashboard

TS = "2026-08-05T00:00:00+00:00"
PROVENANCE = dict.fromkeys(PROVENANCE_KEYS, "test") | {"timestamp": TS}


def _record(case, value, exponent=0.0, expectation=None, suite="bench"):
    points = [{"n": n, "value": value * (n ** exponent),
               "preprocessing_seconds": 1e-6 * n, "outputs": 100}
              for n in (100, 1000, 10000)]
    return make_record(suite, case, "delay_p50_seconds", points,
                       expectation=expectation,
                       provenance=PROVENANCE)


@pytest.fixture
def history(tmp_path):
    obs = Observatory(str(tmp_path / "history"))
    for value in (1e-6, 1.05e-6, 0.98e-6, 1.01e-6, 1.0e-6):
        obs.append(_record("fc/delay", value,
                           expectation="constant-delay"))
    obs.append(_record("hard/total", 1e-9, exponent=1.5,
                       expectation="superlinear"))
    return obs


def test_dashboard_renders_cases_and_verdicts(history):
    html = render_dashboard(history)
    assert "<svg" in html
    assert "fc/delay" in html and "hard/total" in html
    assert "constant-delay" in html and "superlinear" in html
    assert "badge-ok" in html
    assert "2 cases" in html and "6 recorded runs" in html
    assert "slope" in html


def test_dashboard_shows_regression_badge(history):
    history.append(_record("fc/delay", 2e-5,
                           expectation="constant-delay"))
    html = render_dashboard(history)
    assert "badge-regression" in html
    assert "1 regression flag" in html


def test_dashboard_shows_verdict_mismatch(tmp_path):
    obs = Observatory(str(tmp_path))
    obs.append(_record("fc/delay", 1e-9, exponent=1.0,
                       expectation="constant-delay"))
    html = render_dashboard(obs)
    assert "badge-mismatch" in html
    assert "1 verdict mismatch" in html


def test_dashboard_empty_history(tmp_path):
    html = render_dashboard(Observatory(str(tmp_path / "none")))
    assert "history is empty" in html


def test_write_dashboard_returns_regressions(history, tmp_path):
    history.append(_record("fc/delay", 5e-5,
                           expectation="constant-delay"))
    out = tmp_path / "report.html"
    path, regressions = write_dashboard(str(out), history.history_dir)
    assert out.exists()
    assert "<!DOCTYPE html>" in out.read_text()
    assert any(r.flagged for r in regressions)


def test_trajectory_svg_single_run(history):
    runs = history.cases()[("bench", "hard/total")]
    svg = trajectory_svg(runs, None)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "<circle" in svg and "<title>" in svg


def test_svg_escapes_attrs(tmp_path):
    obs = Observatory(str(tmp_path))
    rec = _record("weird/<case>&", 1e-6)
    obs.append(rec)
    html = render_dashboard(obs)
    assert "weird/&lt;case&gt;&amp;" in html
    assert "<case>&" not in html
