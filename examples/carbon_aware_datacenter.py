#!/usr/bin/env python
"""Facility-level analysis: regenerate the paper's figures and evaluate Section II.A/III levers.

Builds the 2020-2021 SuperCloud-like world (facility + weather + ISO-NE-like
grid + conference-driven demand), prints the monthly series behind Figs. 2-5,
then asks the operational questions the paper raises:

* how much of the facility's emissions/spend is avoidable by shifting load
  into green/cheap hours (the opportunity cost of Section II.A)?
* what would the deadline-restructuring options of Section III change?

Run with::

    python examples/carbon_aware_datacenter.py
"""

from __future__ import annotations

from repro import ExperimentSession
from repro.analysis.figures import (
    SuperCloudScenario,
    fig2_power_vs_green_share,
    fig3_price_vs_green_share,
    fig4_power_vs_temperature,
    fig5_energy_vs_deadlines,
)
from repro.core.opportunity_cost import opportunity_cost_of_profile
from repro.core.policies import LoadShiftingPolicy, evaluate_load_shifting


def print_monthly_table(scenario: SuperCloudScenario) -> None:
    fig2 = fig2_power_vs_green_share(scenario)
    fig3 = fig3_price_vs_green_share(scenario)
    fig4 = fig4_power_vs_temperature(scenario)
    fig5 = fig5_energy_vs_deadlines(scenario)
    print(f"{'month':>9} {'power kW':>9} {'green %':>8} {'LMP $/MWh':>10} {'temp F':>7} "
          f"{'energy MWh':>11} {'deadlines':>9}")
    for i, label in enumerate(fig2.month_labels):
        print(
            f"{label:>9} {fig2.monthly_power_kw[i]:9.0f} {fig2.monthly_renewable_share_pct[i]:8.1f} "
            f"{fig3.monthly_price_per_mwh[i]:10.1f} {fig4.monthly_temperature_f[i]:7.1f} "
            f"{fig5.monthly_energy_mwh[i]:11.0f} {int(fig5.deadlines_per_month[i]):9d}"
        )
    print()
    print(f"Fig.2  corr(power, green share)      = {fig2.correlation:+.2f}")
    print(f"Fig.3  corr(price, green share)      = {fig3.correlation:+.2f}  "
          f"(cheapest month: {fig3.cheapest_month})")
    print(f"Fig.4  Spearman(power, temperature)  = {fig4.spearman:+.2f}")
    print(f"Fig.5  deadline uplift               = {fig5.deadline_uplift_mwh.mean():.0f} MWh/month, "
          f"early-2021/2020 ratio {fig5.early_2021_vs_2020_ratio:.2f}")
    print()


def main() -> None:
    print("=" * 72)
    print("A Green(er) SuperCloud: monthly picture and demand-side levers")
    print("=" * 72)
    session = ExperimentSession(seed=0, n_months=24)

    print_monthly_table(session.scenario())

    load_kwh = session.hourly_facility_load_kwh()
    report = opportunity_cost_of_profile(load_kwh, session.grid, deferrable_fraction=0.3, window_h=24)
    print("Opportunity cost of buying-when-consuming (30% deferrable, 24 h windows):")
    print(f"  avoidable emissions : {report.environmental_opportunity_cost_kg / 1e3:8.1f} t CO2e "
          f"({100 * report.environmental_opportunity_fraction:.1f}% of actual)")
    print(f"  avoidable spend     : ${report.financial_opportunity_cost_usd / 1e3:8.1f}k "
          f"({100 * report.financial_opportunity_fraction:.1f}% of actual)")
    print()

    outcome = evaluate_load_shifting(
        facility_load_kwh=load_kwh,
        grid=session.grid,
        policy=LoadShiftingPolicy(deferrable_fraction=0.3, window_h=24, signal="carbon"),
    )
    print("Carbon-aware load shifting (same flexibility):")
    print(f"  emissions saved     : {100 * outcome.emissions_savings_fraction:.1f}%")
    print(f"  peak power change   : {100 * outcome.peak_power_change_fraction:+.1f}%")
    print()

    print("Deadline-calendar options (Section III), identical substrates:")
    for row in session.run("deadlines").rows:
        print(f"  {row['option']:>8}: energy {row['energy_mwh']:7.0f} MWh, "
              f"emissions {row['emissions_t']:7.0f} t, "
              f"peak month {row['peak_monthly_power_kw']:5.0f} kW, "
              f"summer share {row['summer_energy_share']:.2f}")


if __name__ == "__main__":
    main()
