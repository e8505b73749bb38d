"""Reports from run manifests: markdown check tables and SVG line charts.

SVG output is generated directly (header, axes, tick marks, polylines) so
the artifact has zero rendering dependencies; its text nodes escape ``&``,
``<`` and ``>``.  A markdown check row escapes ``|`` and puts line breaks
as spaces, in the check's name and detail alike.  Each experiment's chart is
one ``CHARTS`` entry, drawn from the CSV its manifest references by header
column names; a missing file or column, or a CSV without data rows, is a
ReportError naming it.  So is a charted cell that is not a finite number, or
not positive on a log axis, named by its file, column and row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape
from pathlib import Path

from .errors import ReportError
from .manifest import RunManifest, read_csv, write_text_file

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_markdown(manifest: RunManifest, out_path: Path) -> Path:
    lines = [
        f"# Run report: {manifest.experiment}",
        "",
        f"- config hash: `{manifest.config_hash}`",
        f"- seed: {manifest.seed}",
        f"- artifact version: {manifest.version}",
        f"- started: {manifest.started_at}",
        f"- finished: {manifest.finished_at}",
        "",
        "## Checks",
        "",
        "| check | status | detail |",
        "|---|---|---|",
    ]
    for check in manifest.checks:
        status = "pass" if check["passed"] else "FAIL"
        lines.append(f"| {_cell(check['name'])} | {status} | {_cell(check.get('detail', ''))} |")
    failures = [c for c in manifest.checks if not c["passed"]]
    lines.append("")
    if failures:
        lines.append(f"**{len(failures)} CHECK(S) FAILED**")
    else:
        lines.append("**ALL CHECKS PASSED**")
    lines += ["", "## Files", ""]
    for entry in manifest.files:
        path = Path(entry["path"])
        if not path.exists():
            raise ReportError(f"manifest references a missing file: {path}")
        lines.append(f"- `{entry['path']}` (sha256 `{entry['sha256'][:16]}...`)")
    write_text_file(out_path, "\n".join(lines) + "\n")
    return out_path


def _cell(text: str) -> str:
    """``text`` as one markdown table cell: ``|`` escaped, each line break a space."""
    return " ".join(text.replace("|", "\\|").splitlines())


def _svg_line_chart(
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    x_label: str,
    y_label: str,
    out_path: Path,
    log_x: bool = False,
) -> Path:
    width, height = 640, 400
    left, right, top, bottom = 70, 20, 40, 50
    plot_w, plot_h = width - left - right, height - top - bottom

    def xform(x: float) -> float:
        return math.log10(x) if log_x else x

    title, x_label, y_label = (escape(text, quote=False) for text in (title, x_label, y_label))
    xs_all = [xform(x) for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_min, x_max = min(xs_all), max(xs_all)
    y_min, y_max = min(ys_all), max(ys_all)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad

    def px(x: float) -> float:
        return left + (xform(x) - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return top + (y_max - y) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 8}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{y_label}</text>',
    ]
    for i in range(5):
        tick_x = x_min + i * (x_max - x_min) / 4
        tick_y = y_min + i * (y_max - y_min) / 4
        sx = left + i * plot_w / 4
        sy = top + plot_h - i * plot_h / 4
        x_text = f"1e{tick_x:.1f}" if log_x else f"{tick_x:.3g}"
        parts.append(f'<line x1="{sx:.1f}" y1="{top + plot_h}" x2="{sx:.1f}" y2="{top + plot_h + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{sx:.1f}" y="{top + plot_h + 18}" text-anchor="middle" font-size="10">{x_text}</text>'
        )
        parts.append(f'<line x1="{left - 5}" y1="{sy:.1f}" x2="{left}" y2="{sy:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{left - 8}" y="{sy + 3:.1f}" text-anchor="end" font-size="10">{tick_y:.3g}</text>'
        )
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{left + plot_w - 4}" y="{top + 14 + 14 * idx}" text-anchor="end" '
            f'font-size="11" fill="{color}">{escape(label, quote=False)}</text>'
        )
    parts.append("</svg>")
    write_text_file(out_path, "\n".join(parts) + "\n")
    return out_path


@dataclass(frozen=True)
class Chart:
    """One line chart drawn from one CSV, its columns named by header.

    Each (label, y column) pair in ``series`` is one line; with ``group`` set
    it is drawn once per distinct value of that column, the label formatted
    with the value.  ``middle`` keeps only the rows at the middle distinct
    value of that column, and the title is formatted with that value.
    Every line is drawn in ascending x.  Every charted cell is a number,
    except the group's when ``text_group`` is set.
    """

    csv: str
    x: str
    series: tuple[tuple[str, str], ...]
    title: str
    x_label: str
    y_label: str
    group: str | None = None
    middle: str | None = None
    log_x: bool = False
    text_group: bool = False


# noise-discrete has no sweep-shaped table, so it has no chart
CHARTS = {
    "accuracy-sweep": Chart(
        "accuracy_sweep.csv", "sigma", (("analytic", "analytic"), ("empirical", "empirical")),
        "Ranking retention vs noise scale", "sigma", "retention", log_x=True,
    ),
    "error-accumulation": Chart(
        "error_accumulation.csv", "M", (("L={:g}", "mc_mean"),),
        "Final squared error vs steps (dim {:g})", "steps", "mean squared error",
        group="L_F", middle="d",
    ),
    "curriculum": Chart(
        "curriculum_sweep.csv", "n", (("{}", "mean_gap"),),
        "Expert gap vs sample size", "n", "mean gap", group="provenance", log_x=True, text_group=True,
    ),
    "cib-frontier": Chart(
        "cib_frontier.csv", "i_past", (("frontier", "i_future"),),
        "Information plane frontier", "retained past information", "predictive information",
    ),
    "divergence-asymptote": Chart(
        "divergence_asymptote.csv", "kappa", (("exact", "exact_kl"), ("asymptote", "asymptote")),
        "Explorer divergence vs concentration", "kappa", "divergence (nats)", log_x=True,
    ),
    "tradeoff-scan": Chart(
        "tradeoff_scan.csv", "i_s", (("bound B={:g}", "bound"), ("oracle B={:g}", "empirical_min_kl")),
        "Certainty cost floor vs top probability", "top probability", "divergence (nats)", group="B",
    ),
    "dag-exploration": Chart(
        "dag_divergence.csv", "kappa", (("mean divergence", "mean_divergence"),),
        "Exploration divergence vs concentration", "kappa", "divergence (nats)", log_x=True,
    ),
}


def emit_svg_charts(manifest: RunManifest, out_dir: Path) -> list[Path]:
    """The line chart of ``manifest``'s experiment, per its ``CHARTS`` entry."""
    chart = CHARTS.get(manifest.experiment)
    if chart is None:
        return []
    path = next((Path(e["path"]) for e in manifest.files if e["path"].endswith(chart.csv)), None)
    if path is None:
        raise ReportError(f"{manifest.experiment} manifest lists no {chart.csv}")
    header, cells = read_csv(path)
    missing = {chart.x, chart.group, chart.middle, *(y for _, y in chart.series)} - {None, *header}
    if missing:
        raise ReportError(f"{path} has no column {', '.join(sorted(missing))}")
    if not cells:
        raise ReportError(f"{path} has no data rows to chart")
    numeric = {chart.x, chart.middle, *(y for _, y in chart.series)}
    if not chart.text_group:
        numeric.add(chart.group)
    numeric.discard(None)
    rows = [
        {name: _number(path, name, index, cell, name == chart.x and chart.log_x) if name in numeric else cell
         for name, cell in zip(header, row)}
        for index, row in enumerate(cells, start=1)
    ]
    pick = None
    if chart.middle is not None:
        values = sorted({r[chart.middle] for r in rows})
        pick = values[len(values) // 2]
        rows = [r for r in rows if r[chart.middle] == pick]
    groups = sorted({r[chart.group] for r in rows}) if chart.group is not None else [None]
    series = []
    for value in groups:
        members = [r for r in rows if chart.group is None or r[chart.group] == value]
        for label, y in chart.series:
            xs, ys = zip(*sorted((r[chart.x], r[y]) for r in members))
            series.append((label.format(value), list(xs), list(ys)))
    out_path = out_dir / chart.csv.replace(".csv", ".svg")
    title = chart.title.format(pick)
    return [_svg_line_chart(series, title, chart.x_label, chart.y_label, out_path, chart.log_x)]


def _number(path: Path, column: str, row: int, cell: str, positive: bool) -> float:
    """A charted cell as a float: a finite number, positive on a log axis, or a ReportError naming it."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (positive and value <= 0.0):
        kind = "a positive finite number, as the log axis needs" if positive else "a finite number"
        raise ReportError(f"{path}: column {column}, row {row}: {cell!r} is not {kind}")
    return value
