"""Report emission: each renderer writes, byte for byte, what the per-round
renderer it replaced wrote, and every written file holds its report."""
import io
import json
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from banditlab import cli
from banditlab.harness import (
    RENDERERS,
    ConfigError,
    RegretReport,
    emit,
    parse_config,
    render_csv,
    render_json,
    render_svg,
    run_experiment,
)


# frozen per-round renderers: the reference every rendering must equal


def _reference_csv(report):
    buf = io.StringIO()
    overlay_names = sorted(report.overlays)
    buf.write(f"# {report.schema}\n")
    cols = ["round", "mean_regret", "sem"] + [f"overlay_{n}" for n in overlay_names]
    buf.write(",".join(cols) + "\n")
    for t in range(report.horizon):
        row = [str(t + 1), repr(float(report.mean_curve[t])), repr(float(report.sem_curve[t]))]
        row += [repr(float(report.overlays[n])) for n in overlay_names]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _reference_json(report):
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def _reference_svg(report, width=640, height=400):
    margin = 50
    n = max(report.horizon, 1)
    values = list(report.mean_curve) if report.horizon else [0.0]
    ymax = max([max(values), *report.overlays.values(), 1e-12])
    xs = lambda t: margin + (width - 2 * margin) * t / n
    ys = lambda v: height - margin - (height - 2 * margin) * v / ymax
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{xs(frac * n):.1f}" y="{height - margin + 16}" font-size="10" '
            f'text-anchor="middle">{int(frac * n)}</text>')
        parts.append(
            f'<text x="{margin - 6}" y="{ys(frac * ymax):.1f}" font-size="10" '
            f'text-anchor="end">{frac * ymax:.3g}</text>')
    if report.horizon:
        pts = " ".join(f"{xs(t + 1):.2f},{ys(v):.2f}"
                       for t, v in enumerate(report.mean_curve))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" '
                     f'stroke-width="1.5"/>')
    for i, (name, value) in enumerate(sorted(report.overlays.items())):
        if value <= ymax:
            y = ys(value)
            parts.append(f'<line x1="{margin}" y1="{y:.2f}" x2="{width - margin}" '
                         f'y2="{y:.2f}" stroke="crimson" stroke-dasharray="6,3"/>')
            parts.append(f'<text x="{width - margin}" y="{y - 4:.2f}" font-size="10" '
                         f'text-anchor="end">{name}={value:.4g}</text>')
    parts.append(f'<text x="{width / 2}" y="16" font-size="12" text-anchor="middle">'
                 f'{report.policy} on {report.env_kind} '
                 f'(n={report.horizon}, replicas={report.replicas})</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


REFERENCES = {"csv": _reference_csv, "json": _reference_json, "svg": _reference_svg}


def _ucb(horizon, replicas, overlays=("ucb",), seed=11):
    return run_experiment({
        "policy": "ucb", "horizon": horizon, "replicas": replicas, "seed": seed,
        "policy_params": {"alpha": "2.5"}, "env_kind": "stochastic",
        "env_params": {"means": "0.9,0.6,0.5"}, "overlays": list(overlays), "output": {},
    })


# the same floats in another order put nan first, where Python's max keeps it
_EDGES = [-0.0, 5e-324, 1e-05, 1e16, 1e22, float("nan"), float("inf"), -float("inf")]


def _edges(values, overlays):
    curve = np.array(values)
    return RegretReport(policy="exp3", env_kind="oblivious", horizon=curve.size, replicas=2,
                        seed=-5, mean_curve=curve, sem_curve=curve[::-1].copy(),
                        terminal_values=np.array(values[-2:]), overlays=overlays,
                        wall_clock_s=0.25)


REPORTS = {
    # no config runs at horizon 0, but a report read from JSON may hold empty curves
    "horizon-0-R3": lambda: RegretReport(
        policy="ucb", env_kind="stochastic", horizon=0, replicas=3, seed=11,
        mean_curve=np.zeros(0), sem_curve=np.zeros(0), terminal_values=np.zeros(3), overlays={},
        wall_clock_s=0.25),
    "horizon-1": lambda: _ucb(1, 4),
    "R1-zero-sem": lambda: _ucb(300, 1),
    "no-overlays": lambda: _ucb(200, 4, overlays=()),
    "three-overlays": lambda: _ucb(500, 4, overlays=("ucb", "kl-lower", "exp3")),
    "sgs-1e5": lambda: run_experiment({
        "policy": "sgs", "horizon": 10**5, "replicas": 10, "seed": 7, "policy_params": {},
        "env_kind": "unimodal", "env_params": {}, "overlays": ["sgs"], "output": {}}),
    "edge-floats": lambda: _edges(_EDGES, {"exp3": 1e22, "minimax-lower": 0.5}),
    "edge-floats-nan-first": lambda: _edges(_EDGES[5:] + _EDGES[:5],
                                            {"exp3": float("inf"), "minimax-lower": 3.0}),
    "integer-curves": lambda: _edges([0, 3, 1, 7], {"exp3": 2.5}),
}


@pytest.fixture(scope="module", params=sorted(REPORTS))
def report(request):
    return REPORTS[request.param]()


def _first_difference(text: str, expected: str):
    """None when equal, else the first line that differs, so that a failure
    does not diff megabytes of report."""
    if text == expected:
        return None
    lines, wanted = text.split("\n"), expected.split("\n")
    for i, (line, want) in enumerate(zip(lines, wanted)):
        if line != want:
            return i, line[:200], want[:200]
    return "line counts", len(lines), len(wanted)


@pytest.mark.parametrize("fmt", sorted(RENDERERS))
def test_renderers_keep_the_bytes_of_the_per_round_forms(report, fmt):
    with np.errstate(all="ignore"):  # the edge reports divide inf by inf
        assert _first_difference(RENDERERS[fmt](report), REFERENCES[fmt](report)) is None


def test_svg_keeps_its_bytes_at_another_size(report):
    with np.errstate(all="ignore"):
        assert _first_difference(render_svg(report, width=811, height=277),
                                 _reference_svg(report, width=811, height=277)) is None


def test_written_files_hold_the_report(report, tmp_path):
    with np.errstate(all="ignore"):
        paths = {fmt: emit(report, fmt, tmp_path / f"r.{fmt}") for fmt in RENDERERS}

    restored = RegretReport.from_dict(json.loads(paths["json"].read_text()))
    assert restored.content_digest() == report.content_digest()

    rows = paths["csv"].read_text().splitlines()
    assert len(rows) == report.horizon + 2
    if report.horizon:
        assert repr(float(rows[-1].split(",")[1])) == repr(report.mean_terminal)

    root = ET.fromstring(paths["svg"].read_text())
    assert root.tag.endswith("svg")


def test_overlay_columns_come_in_name_order():
    text = render_csv(_ucb(5, 2, overlays=("ucb", "kl-lower", "exp3")))
    assert text.splitlines()[1] == \
        "round,mean_regret,sem,overlay_exp3,overlay_kl-lower,overlay_ucb"


def test_unknown_format_touches_no_directory(tmp_path):
    report = _ucb(5, 2)
    with pytest.raises(ConfigError, match="pdf"):
        emit(report, "pdf", tmp_path / "new" / "r.pdf")
    assert not (tmp_path / "new").exists()


def test_output_formats_are_the_renderers():
    ini = "[experiment]\npolicy = ucb\n[environment]\nkind = stochastic\nmeans = 0.9, 0.6\n"
    for fmt in RENDERERS:
        assert parse_config(ini + f"[output]\nformat = {fmt}\n")["output"]["format"] == fmt
    with pytest.raises(ConfigError, match="output.format.*csv, json, svg"):
        parse_config(ini + "[output]\nformat = pdf\n")
    with pytest.raises(SystemExit):
        cli.main(["run", "--config", "exp.ini", "--format", "pdf"])


def _peak_bytes(render, report) -> int:
    tracemalloc.start()
    try:
        render(report)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", sorted(RENDERERS))
def test_rendering_peaks_below_the_per_round_form(fmt):
    report = REPORTS["sgs-1e5"]()
    assert _peak_bytes(RENDERERS[fmt], report) < _peak_bytes(REFERENCES[fmt], report)
