"""Campaign reports: markdown + embedded-SVG HTML, stdlib only.

:func:`campaign_report` runs a campaign through an
:class:`~repro.artifacts.ArtifactStore`, builds its comparison
(:func:`compare_payload`: per-metric grids across every swept dimension —
policies, routers, sites, fleets, seeds, ...) and renders it in memory into
two texts:

* :func:`render_markdown` — one section per metric with a comparison table
  per dimension, pasteable into issues and PRs;
* :func:`render_html` — the same tables next to hand-built grouped-bar SVG
  charts (:func:`svg_bar_chart`), a self-contained single file with no
  external assets, scripts or plotting dependencies.

Only the run artifacts are stored; the comparison and both renderings are
deterministic functions of the run results (no timestamps, no environment),
so a warm report renders the same bytes as the cold one without caching
anything of its own.
"""

from __future__ import annotations

import html
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from ..artifacts.store import ArtifactStore
from ..config import config_to_jsonable
from ..parallel.pool import ParallelConfig
from .campaign import CampaignResult, CampaignSpec, run_campaign

__all__ = [
    "CampaignReport",
    "campaign_report",
    "compare_payload",
    "render_markdown",
    "render_html",
    "svg_bar_chart",
]

#: Colorblind-safe series palette (cycled when a campaign has more experiments).
PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#76b7b2",
    "#edc948",
    "#9c755f",
)


def _fmt(value: Any) -> str:
    """One table/axis number: compact, stable, '-' for missing."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, float)):
        return f"{value:.6g}"
    return str(value)


def _md_cell(value: Any) -> str:
    """A markdown table cell: pipes and newlines must not break the row."""
    return _fmt(value).replace("|", "\\|").replace("\n", " ")


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def _nice_ticks(vmin: float, vmax: float, n: int = 4) -> list[float]:
    """About ``n`` evenly spaced axis ticks spanning [vmin, vmax]."""
    if vmax <= vmin:
        vmax = vmin + 1.0
    step = (vmax - vmin) / n
    return [vmin + i * step for i in range(n + 1)]


def svg_bar_chart(
    title: str,
    categories: Sequence[str],
    series: Mapping[str, Sequence[Optional[float]]],
    *,
    width: int = 640,
    height: int = 280,
) -> str:
    """A grouped vertical bar chart as a self-contained ``<svg>`` element.

    ``categories`` label the x-axis groups (one per swept dimension value);
    ``series`` maps each experiment to its per-category means (``None``
    leaves a gap).  Handles negative values with a zero baseline.  Pure
    string assembly — no plotting library.
    """
    margin_left, margin_right, margin_top, margin_bottom = 64, 16, 48, 56
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    values = [v for row in series.values() for v in row if v is not None]
    vmin = min(0.0, min(values)) if values else 0.0
    vmax = max(0.0, max(values)) if values else 1.0
    if vmax == vmin:
        vmax = vmin + 1.0

    def y_of(value: float) -> float:
        return margin_top + plot_h * (1.0 - (value - vmin) / (vmax - vmin))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">',
        f'<title>{html.escape(title)}</title>',
        f'<text x="{margin_left}" y="18" font-size="13" font-family="sans-serif" '
        f'font-weight="bold">{html.escape(title)}</text>',
    ]
    # Legend, top-right.
    legend_x = margin_left
    for i, name in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<rect x="{legend_x}" y="26" width="10" height="10" fill="{color}"/>'
            f'<text x="{legend_x + 14}" y="35" font-size="11" '
            f'font-family="sans-serif">{html.escape(str(name))}</text>'
        )
        legend_x += 24 + 7 * len(str(name))
    # Gridlines and y-axis labels.
    for tick in _nice_ticks(vmin, vmax):
        y = y_of(tick)
        parts.append(
            f'<line x1="{margin_left}" y1="{y:.1f}" x2="{width - margin_right}" '
            f'y2="{y:.1f}" stroke="#ddd" stroke-width="1"/>'
            f'<text x="{margin_left - 6}" y="{y + 4:.1f}" font-size="10" '
            f'font-family="sans-serif" text-anchor="end">{_fmt(tick)}</text>'
        )
    # Bars.
    n_cat = max(1, len(categories))
    n_series = max(1, len(series))
    group_w = plot_w / n_cat
    bar_w = max(2.0, 0.8 * group_w / n_series)
    zero_y = y_of(0.0)
    for s_index, (name, row) in enumerate(series.items()):
        color = PALETTE[s_index % len(PALETTE)]
        for c_index, value in enumerate(row[: len(categories)]):
            if value is None:
                continue
            x = margin_left + c_index * group_w + 0.1 * group_w + s_index * bar_w
            top = min(zero_y, y_of(value))
            bar_h = abs(y_of(value) - zero_y)
            label = f"{name} / {categories[c_index]}: {_fmt(value)}"
            parts.append(
                f'<rect x="{x:.1f}" y="{top:.1f}" width="{bar_w:.1f}" '
                f'height="{max(bar_h, 0.5):.1f}" fill="{color}">'
                f"<title>{html.escape(label)}</title></rect>"
            )
    # Zero baseline and category labels.
    parts.append(
        f'<line x1="{margin_left}" y1="{zero_y:.1f}" x2="{width - margin_right}" '
        f'y2="{zero_y:.1f}" stroke="#333" stroke-width="1"/>'
    )
    for c_index, category in enumerate(categories):
        x = margin_left + (c_index + 0.5) * group_w
        text = str(category)
        shown = text if len(text) <= 18 else text[:16] + "…"
        parts.append(
            f'<text x="{x:.1f}" y="{height - margin_bottom + 16}" font-size="10" '
            f'font-family="sans-serif" text-anchor="middle">'
            f"<title>{html.escape(text)}</title>{html.escape(shown)}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Assembling the battery
# ---------------------------------------------------------------------------


def _chart_inputs(
    entries: Sequence[Mapping[str, Any]]
) -> tuple[list[str], dict[str, list[Optional[float]]]]:
    """Categories (dimension labels) and per-experiment mean series."""
    categories: list[str] = []
    for entry in entries:
        label = str(entry.get("label"))
        if label not in categories:
            categories.append(label)
    series: dict[str, list[Optional[float]]] = {}
    for entry in entries:
        name = str(entry.get("experiment"))
        series.setdefault(name, [None] * len(categories))
    for entry in entries:
        name = str(entry.get("experiment"))
        label = str(entry.get("label"))
        value = entry.get("mean")
        series[name][categories.index(label)] = (
            float(value) if isinstance(value, (int, float)) else None
        )
    return categories, series


def _iter_grids(comparison: Mapping[str, Any]):
    """Yield (metric, dimension, entries) in metric-major order.

    Every non-empty grid is yielded, the ``experiment`` grid included, so a
    metric's section opens with its per-experiment totals and then breaks
    them down by each swept dimension."""
    tables = dict(comparison.get("tables", {}))
    for metric in comparison.get("metrics", []):
        for dimension in comparison.get("dimensions", []):
            entries = tables.get(dimension, {}).get(metric)
            if entries:
                yield metric, dimension, entries


def render_markdown(comparison: Mapping[str, Any], *, title: str) -> str:
    """The comparison grids as a markdown report (one section per metric)."""
    experiments = comparison.get("experiments", [])
    lines = [
        f"# Campaign report — {title}",
        "",
        f"- experiments: {', '.join(str(e) for e in experiments) or '-'}",
        f"- points: {comparison.get('n_points', 0)}",
        f"- compared dimensions: "
        f"{', '.join(str(d) for d in comparison.get('dimensions', [])) or '-'}",
        f"- metrics: {len(comparison.get('metrics', []))}",
        "",
    ]
    current_metric = None
    for metric, dimension, entries in _iter_grids(comparison):
        if metric != current_metric:
            lines.extend([f"## {metric}", ""])
            current_metric = metric
        lines.extend([f"### by {dimension}", ""])
        lines.append("| experiment | " + str(dimension) + " | mean | min | max | points |")
        lines.append("|---|---|---|---|---|---|")
        for entry in entries:
            lines.append(
                "| "
                + " | ".join(
                    _md_cell(entry.get(k))
                    for k in ("experiment", "label", "mean", "min", "max", "n_points")
                )
                + " |"
            )
        lines.append("")
    return "\n".join(lines)


def render_html(comparison: Mapping[str, Any], *, title: str) -> str:
    """The comparison grids as one self-contained HTML page with SVG charts."""
    head = (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>Campaign report — {html.escape(title)}</title>"
        "<style>"
        "body{font-family:sans-serif;margin:2em;max-width:72em}"
        "table{border-collapse:collapse;margin:0.5em 0 1.5em}"
        "td,th{border:1px solid #ccc;padding:4px 10px;font-size:13px;text-align:left}"
        "th{background:#f4f4f4}"
        "h2{border-bottom:1px solid #ddd;padding-bottom:4px;margin-top:1.6em}"
        "figure{margin:0.5em 0}"
        "</style></head><body>"
    )
    parts = [
        head,
        f"<h1>Campaign report — {html.escape(title)}</h1>",
        "<ul>"
        f"<li>experiments: {html.escape(', '.join(str(e) for e in comparison.get('experiments', [])) or '-')}</li>"
        f"<li>points: {comparison.get('n_points', 0)}</li>"
        f"<li>compared dimensions: {html.escape(', '.join(str(d) for d in comparison.get('dimensions', [])) or '-')}</li>"
        "</ul>",
    ]
    current_metric = None
    for metric, dimension, entries in _iter_grids(comparison):
        if metric != current_metric:
            parts.append(f"<h2>{html.escape(str(metric))}</h2>")
            current_metric = metric
        parts.append(f"<h3>by {html.escape(str(dimension))}</h3>")
        categories, series = _chart_inputs(entries)
        parts.append(
            "<figure>" + svg_bar_chart(f"{metric} by {dimension}", categories, series) + "</figure>"
        )
        header = ["experiment", str(dimension), "mean", "min", "max", "points"]
        rows = [
            "<tr>"
            + "".join(
                f"<td>{html.escape(_fmt(entry.get(k)))}</td>"
                for k in ("experiment", "label", "mean", "min", "max", "n_points")
            )
            + "</tr>"
            for entry in entries
        ]
        parts.append(
            "<table><thead><tr>"
            + "".join(f"<th>{html.escape(h)}</th>" for h in header)
            + "</tr></thead><tbody>"
            + "".join(rows)
            + "</tbody></table>"
        )
    parts.append("</body></html>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Comparison and report
# ---------------------------------------------------------------------------


def _metric_names(records: Sequence[Mapping[str, Any]]) -> list[str]:
    """Base metric names aggregated in summarize records, in first-seen order."""
    metrics: list[str] = []
    for record in records:
        for column in record:
            if column.endswith("_mean"):
                base = column[: -len("_mean")]
                if base not in metrics:
                    metrics.append(base)
    return metrics


def compare_payload(result: CampaignResult) -> dict[str, Any]:
    """Per-metric comparison grids across every dimension of a campaign.

    ``experiment`` is always the first dimension; each swept grid dimension
    adds a grid whose entries carry the experiment, the dimension value's
    label and the metric's mean/min/max over the matching points.  The
    payload is strict JSON (non-finite values become ``None``).
    """
    campaign = result.campaign
    grids = {"experiment": result.summarize("experiment")}
    for dimension in [*campaign.scenario_grid, *campaign.param_grid]:
        grids[dimension] = result.summarize("experiment", dimension)
    tables: dict[str, dict[str, list[dict[str, Any]]]] = {}
    metrics: list[str] = []
    for dimension, records in grids.items():
        records = config_to_jsonable(records)
        table: dict[str, list[dict[str, Any]]] = {}
        for metric in _metric_names(records):
            if metric not in metrics:
                metrics.append(metric)
            table[metric] = [
                {
                    "experiment": record.get("experiment"),
                    "label": record.get(dimension, record.get("experiment")),
                    "mean": record.get(f"{metric}_mean"),
                    "min": record.get(f"{metric}_min"),
                    "max": record.get(f"{metric}_max"),
                    "n_points": record.get("n_points"),
                }
                for record in records
                if f"{metric}_mean" in record
            ]
        tables[dimension] = table
    return {
        "experiments": list(campaign.experiments),
        "dimensions": list(grids),
        "metrics": metrics,
        "n_points": len(result),
        "tables": tables,
    }


@dataclass(frozen=True)
class CampaignReport:
    """A campaign's run results, their comparison and both renderings."""

    result: CampaignResult
    comparison: Mapping[str, Any]
    markdown: str
    html: str

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON-ready status view (rows and renderings stay separate)."""
        return {
            "n_points": len(self.result),
            "cache_hits": self.result.cache_hits,
            "cache_misses": self.result.cache_misses,
            "metrics": list(self.comparison["metrics"]),
            "dimensions": list(self.comparison["dimensions"]),
        }


def campaign_report(
    campaign: CampaignSpec,
    store: ArtifactStore,
    *,
    parallel: Optional[ParallelConfig] = None,
    simulate: bool = True,
    force: bool = False,
) -> CampaignReport:
    """Run ``campaign`` through ``store`` and render its report.

    The run goes through :func:`~repro.experiments.campaign.run_campaign`,
    which reads each point's artifact once and stores the points it
    simulates; nothing else touches the store.  ``simulate=False`` forbids
    simulator executions, so a missing or unreadable run artifact raises
    :class:`~repro.errors.ArtifactError` naming the gap before anything
    runs — ``greenhpc report`` relies on that to render from a warm store.
    ``force=True`` re-simulates every point and overwrites its artifact.
    """
    result = run_campaign(campaign, parallel, store=store, force=force, simulate=simulate)
    comparison = compare_payload(result)
    title = campaign.base.name
    return CampaignReport(
        result=result,
        comparison=comparison,
        markdown=render_markdown(comparison, title=title),
        html=render_html(comparison, title=title),
    )
