#!/usr/bin/env python
"""Incremental campaigns: the artifact store and the report battery.

A campaign run against a content-addressed `ArtifactStore` becomes
*incremental*: every point is cached under a stable hash of (scenario spec,
experiment, params, derived seed, code version), so an unchanged re-sweep
performs zero simulator executions and returns byte-identical rows, while
editing one grid value reruns only the affected points.  `campaign_report`
reads those run artifacts and renders a figure battery (markdown +
embedded-SVG HTML) from them in memory; the store holds nothing else.

Run with::

    python examples/campaign_report.py

The same flow from the command line::

    greenhpc sweep --experiments shifting --grid seed=0,1 \\
        --grid deferrable=0.2,0.4 --cache-dir ./cache
    greenhpc sweep --experiments shifting --grid seed=0,1 \\
        --grid deferrable=0.2,0.4 --cache-dir ./cache   # 0 simulated
    greenhpc report --experiments shifting --grid seed=0,1 \\
        --grid deferrable=0.2,0.4 --cache-dir ./cache --out ./report
"""

from __future__ import annotations

import pathlib
import tempfile

from repro.artifacts import ArtifactStore
from repro.experiments import CampaignSpec, ScenarioSpec, campaign_report, run_campaign


def build_campaign() -> CampaignSpec:
    """Load-shifting savings over two seeds and two deferrable fractions."""
    return CampaignSpec(
        experiments=("shifting",),
        base=ScenarioSpec(name="report-demo", n_months=6),
        scenario_grid={"seed": [0, 1]},
        param_grid={"deferrable": [0.2, 0.4]},
    )


def sweep_cold_then_warm(campaign: CampaignSpec, store: ArtifactStore) -> None:
    cold = run_campaign(campaign, store=store)
    print(f"cold sweep:  {cold.cache_hits} cached, {cold.cache_misses} simulated")

    warm = run_campaign(campaign, store=store)
    print(f"warm sweep:  {warm.cache_hits} cached, {warm.cache_misses} simulated")
    print(f"rows byte-identical: {warm.to_csv() == cold.to_csv()}")
    print()

    # Edit ONE grid value: only the two seed=2 points (one per deferrable
    # fraction) simulate; the seed=0 artifacts are served from the store.
    edited = CampaignSpec(
        experiments=campaign.experiments,
        base=campaign.base,
        scenario_grid={"seed": [0, 2]},
        param_grid=dict(campaign.param_grid),
    )
    partial = run_campaign(edited, store=store)
    print(f"edited grid: {partial.cache_hits} cached, {partial.cache_misses} simulated")
    print()


def render_report(campaign: CampaignSpec, store: ArtifactStore, out: pathlib.Path) -> None:
    # Every run artifact is already in the store, so the report renders with
    # a hard no-resimulation guarantee (simulate=False raises on any gap).
    report = campaign_report(campaign, store, simulate=False)
    result = report.result
    print(f"report:      {result.cache_hits} cached, {result.cache_misses} simulated")
    print()

    (out / "report.md").write_text(report.markdown)
    (out / "report.html").write_text(report.html)
    print(f"report written to {out}/report.md and {out}/report.html")
    print()
    print("markdown preview:")
    print("\n".join(report.markdown.splitlines()[:14]))


def main() -> None:
    print("=" * 72)
    print("Incremental campaigns: artifact store and report battery")
    print("=" * 72)
    campaign = build_campaign()
    with (
        tempfile.TemporaryDirectory(prefix="campaign-cache-") as cache_dir,
        tempfile.TemporaryDirectory(prefix="campaign-report-") as report_dir,
    ):
        store = ArtifactStore(cache_dir)
        sweep_cold_then_warm(campaign, store)
        render_report(campaign, store, pathlib.Path(report_dir))
        stats = store.stats()
        print()
        print(
            f"store: {stats.n_artifacts} artifacts, {stats.total_bytes} bytes "
            f"({stats.hits} hits / {stats.misses} misses / {stats.writes} writes)"
        )


if __name__ == "__main__":
    main()
