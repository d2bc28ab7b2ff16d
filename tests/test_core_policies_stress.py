"""Tests for load shifting, opportunity cost, deadline restructuring, and stress tests."""

import numpy as np
import pytest

from repro.core.opportunity_cost import opportunity_cost_of_profile
from repro.core.policies import (
    LoadShiftingPolicy,
    evaluate_deadline_restructuring,
    evaluate_load_shifting,
)
from repro.core.stress import StressTestHarness
from repro.climate.stress_scenarios import STANDARD_STRESS_SCENARIOS
from repro.errors import OptimizationError
from repro.workloads.supercloud import SuperCloudTraceConfig
from repro.config import FacilityConfig


@pytest.fixture(scope="module")
def hourly_load(year_grid):
    """A synthetic facility load with a diurnal swing, aligned with the year grid."""
    hours = year_grid.hours
    return 300.0 + 80.0 * np.cos(2 * np.pi * (hours % 24 - 15) / 24.0)


class TestLoadShifting:
    def test_energy_conserved(self, hourly_load, year_grid):
        policy = LoadShiftingPolicy(deferrable_fraction=0.3, window_h=24, signal="carbon")
        outcome = evaluate_load_shifting(facility_load_kwh=hourly_load, grid=year_grid, policy=policy)
        assert outcome.shifted_energy_mwh == pytest.approx(outcome.baseline_energy_mwh, rel=1e-9)

    def test_carbon_signal_reduces_emissions(self, hourly_load, year_grid):
        policy = LoadShiftingPolicy(deferrable_fraction=0.3, window_h=24, signal="carbon")
        outcome = evaluate_load_shifting(facility_load_kwh=hourly_load, grid=year_grid, policy=policy)
        assert outcome.emissions_savings_fraction > 0.0

    def test_price_signal_reduces_cost(self, hourly_load, year_grid):
        policy = LoadShiftingPolicy(deferrable_fraction=0.3, window_h=24, signal="price")
        outcome = evaluate_load_shifting(facility_load_kwh=hourly_load, grid=year_grid, policy=policy)
        assert outcome.cost_savings_fraction > 0.0

    def test_more_deferrable_load_saves_more(self, hourly_load, year_grid):
        small = evaluate_load_shifting(
            facility_load_kwh=hourly_load,
            grid=year_grid,
            policy=LoadShiftingPolicy(deferrable_fraction=0.1, signal="carbon"),
        )
        large = evaluate_load_shifting(
            facility_load_kwh=hourly_load,
            grid=year_grid,
            policy=LoadShiftingPolicy(deferrable_fraction=0.5, signal="carbon"),
        )
        assert large.emissions_savings_fraction >= small.emissions_savings_fraction

    def test_zero_deferrable_is_noop(self, hourly_load, year_grid):
        outcome = evaluate_load_shifting(
            facility_load_kwh=hourly_load,
            grid=year_grid,
            policy=LoadShiftingPolicy(deferrable_fraction=0.0),
        )
        assert outcome.emissions_savings_fraction == pytest.approx(0.0, abs=1e-12)
        assert outcome.cost_savings_fraction == pytest.approx(0.0, abs=1e-12)

    def test_summary_keys(self, hourly_load, year_grid):
        outcome = evaluate_load_shifting(
            facility_load_kwh=hourly_load, grid=year_grid, policy=LoadShiftingPolicy()
        )
        assert "emissions_savings_pct" in outcome.summary()

    def test_shape_mismatch_rejected(self, year_grid):
        with pytest.raises(OptimizationError):
            evaluate_load_shifting(
                facility_load_kwh=np.ones(10), grid=year_grid, policy=LoadShiftingPolicy()
            )

    def test_policy_validation(self):
        with pytest.raises(OptimizationError):
            LoadShiftingPolicy(deferrable_fraction=1.5)
        with pytest.raises(OptimizationError):
            LoadShiftingPolicy(window_h=0)
        with pytest.raises(OptimizationError):
            LoadShiftingPolicy(signal="vibes")


class TestOpportunityCost:
    def test_report_fields(self, hourly_load, year_grid):
        report = opportunity_cost_of_profile(hourly_load, year_grid, deferrable_fraction=0.3)
        assert report.environmental_opportunity_cost_kg >= 0.0
        assert report.financial_opportunity_cost_usd >= 0.0
        assert 0.0 <= report.environmental_opportunity_fraction < 1.0
        assert 0.0 <= report.financial_opportunity_fraction < 1.0
        assert "avoidable_emissions_pct" in report.summary()

    def test_more_flexibility_more_opportunity(self, hourly_load, year_grid):
        rigid = opportunity_cost_of_profile(hourly_load, year_grid, deferrable_fraction=0.1)
        flexible = opportunity_cost_of_profile(hourly_load, year_grid, deferrable_fraction=0.5)
        assert (
            flexible.environmental_opportunity_cost_kg >= rigid.environmental_opportunity_cost_kg
        )

    def test_empty_profile_rejected(self, year_grid):
        with pytest.raises(OptimizationError):
            opportunity_cost_of_profile(np.array([]), year_grid)


class TestDeadlineRestructuring:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return evaluate_deadline_restructuring(seed=0, n_months=24)

    def test_all_options_evaluated(self, outcomes):
        assert set(outcomes) == {"actual", "uniform", "winter", "rolling"}

    def test_rolling_removes_deadline_energy(self, outcomes):
        """Without deadlines there is no anticipation surge, so total energy drops."""
        assert outcomes["rolling"].total_energy_mwh < outcomes["actual"].total_energy_mwh

    def test_winter_calendar_reduces_summer_share(self, outcomes):
        assert outcomes["winter"].summer_energy_share < outcomes["actual"].summer_energy_share

    def test_restructuring_reduces_peak_or_emissions(self, outcomes):
        """At least one of the paper's options improves on the status quo on peak
        power or emissions (the claim is that the calendar is a real lever)."""
        actual = outcomes["actual"]
        improvements = [
            outcomes[o].peak_monthly_power_kw < actual.peak_monthly_power_kw
            or outcomes[o].total_emissions_t < actual.total_emissions_t
            for o in ("uniform", "winter", "rolling")
        ]
        assert any(improvements)

    def test_summary_records(self, outcomes):
        record = outcomes["actual"].summary()
        assert record["option"] == "actual"
        assert record["energy_mwh"] > 0


class TestStressHarness:
    @pytest.fixture(scope="class")
    def harness(self):
        facility = FacilityConfig(n_nodes=64, gpus_per_node=2)
        return StressTestHarness(
            n_months=12, seed=0, trace_config=SuperCloudTraceConfig(facility=facility)
        )

    @pytest.fixture(scope="class")
    def battery(self, harness):
        return harness.run_battery(STANDARD_STRESS_SCENARIOS)

    def test_all_scenarios_run(self, battery):
        assert set(battery) == {s.name for s in STANDARD_STRESS_SCENARIOS}

    def test_battery_keeps_scenario_order(self, battery):
        assert list(battery) == [s.name for s in STANDARD_STRESS_SCENARIOS]

    def test_stress_scenarios_degrade_energy(self, battery):
        baseline = battery["baseline"]
        severe = battery["severely-adverse"]
        assert severe.total_energy_mwh > baseline.total_energy_mwh
        assert severe.cooling_energy_mwh > baseline.cooling_energy_mwh
        assert severe.total_cost_kusd > baseline.total_cost_kusd
        assert severe.mean_pue > baseline.mean_pue

    def test_heat_scenarios_raise_max_temperature(self, battery):
        assert battery["adverse-heat"].max_outdoor_temperature_c > battery["baseline"].max_outdoor_temperature_c

    def test_degradation_table(self, battery):
        table = StressTestHarness.degradation_table(battery)
        rows = {row["scenario"]: row for row in table}
        assert rows["baseline"]["energy_increase_pct"] == pytest.approx(0.0, abs=1e-9)
        assert rows["severely-adverse"]["energy_increase_pct"] > 0.0

    def test_degradation_requires_baseline(self, battery):
        partial = {k: v for k, v in battery.items() if k != "baseline"}
        with pytest.raises(Exception):
            StressTestHarness.degradation_table(partial)

    def test_single_scenario(self, harness):
        spec = next(s for s in STANDARD_STRESS_SCENARIOS if s.name == "winter-gas-crisis")
        result = harness.run_scenario(spec)
        assert result.total_cost_kusd > 0
        assert result.severity == 2
