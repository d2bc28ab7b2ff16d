#!/usr/bin/env python
"""Campaigns: declarative multi-scenario sweeps over the experiment registry.

A `CampaignSpec` answers sweep-shaped questions ("compare N policies x
M sites x K seeds") in one object: a base scenario, a grid over scenario
fields, a grid over experiment parameters, and the experiments to run at
every point.  `run_campaign` expands it into reproducibly seeded points,
executes them (optionally across processes, one substrate-caching session
per distinct world per worker) and collects a columnar `CampaignResult`.

Run with::

    python examples/campaign_sweep.py

The same sweep from the command line::

    greenhpc sweep --experiments shifting --grid site=holyoke-ma,phoenix-az \\
        --grid seed=0,1 --grid deferrable=0.2,0.4 --workers 2 --json
"""

from __future__ import annotations

from repro.experiments import CampaignSpec, run_campaign
from repro.parallel import ParallelConfig


def build_campaign() -> CampaignSpec:
    """Load-shifting savings across two sites, two seeds and two policies."""
    campaign = CampaignSpec(
        experiments=("shifting",),
        base="single-year",
        scenario_grid={"site": ["holyoke-ma", "phoenix-az"], "seed": [0, 1]},
        param_grid={"deferrable": [0.2, 0.4]},
    )
    n_points = len(campaign.expand())
    print(f"campaign: {list(campaign.experiments)} over "
          f"{dict(campaign.scenario_grid)} x {dict(campaign.param_grid)} -> {n_points} points")
    print()
    return campaign


def run_and_summarize(campaign: CampaignSpec) -> None:
    result = run_campaign(campaign, ParallelConfig(n_workers=2))

    print("per-point rows (identity columns + headline scalars):")
    for row in result.rows:
        print(
            f"  {row['site']:<12} seed={row['seed']}  deferrable={row['deferrable']:.1f}  "
            f"emissions savings = {row['emissions_savings_pct']:5.2f}%"
        )
    print()

    print("summarized by site (mean/min/max over seeds and deferrable fractions):")
    for record in result.summarize("site", values=["emissions_savings_pct"]):
        print(
            f"  {record['site']:<12} n={record['n_points']}  "
            f"mean={record['emissions_savings_pct_mean']:5.2f}%  "
            f"min={record['emissions_savings_pct_min']:5.2f}%  "
            f"max={record['emissions_savings_pct_max']:5.2f}%"
        )
    print()

    # Full drill-down: every point keeps its complete ExperimentResult.
    first = result.result_for(0)
    print(f"point 0 ran {first.name!r} with params {dict(first.params)}")
    print()
    print("CSV export (first two lines):")
    print("\n".join(result.to_csv().splitlines()[:2]))


def main() -> None:
    print("=" * 72)
    print("Campaign API: declarative sweeps over the experiment registry")
    print("=" * 72)
    campaign = build_campaign()
    run_and_summarize(campaign)


if __name__ == "__main__":
    main()
