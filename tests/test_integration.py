"""Cross-module integration tests built around one :class:`ExperimentSession`."""

import pytest

from repro import ExperimentSession
from repro.analysis.figures import (
    fig2_power_vs_green_share,
    fig3_price_vs_green_share,
    fig4_power_vs_temperature,
    fig5_energy_vs_deadlines,
)
from repro.config import FacilityConfig
from repro.core.levers import OperatingPoint
from repro.core.opportunity_cost import opportunity_cost_of_profile
from repro.core.policies import LoadShiftingPolicy, evaluate_load_shifting


@pytest.fixture(scope="module")
def session() -> ExperimentSession:
    return ExperimentSession(seed=0, n_months=24)


class TestSession:
    def test_scenario_cached(self, session):
        assert session.scenario() is session.scenario()
        assert session.grid is session.scenario().grid

    def test_monthly_figures_reproduce_paper_shapes(self, session):
        scenario = session.scenario()
        assert fig2_power_vs_green_share(scenario).correlation < 0
        assert fig3_price_vs_green_share(scenario).correlation < 0
        assert fig4_power_vs_temperature(scenario).spearman > 0.8
        assert fig5_energy_vs_deadlines(scenario).anticipation_detected()

    def test_hourly_load_positive(self, session):
        load = session.hourly_facility_load_kwh()
        assert load.min() > 0
        assert load.shape[0] == session.calendar.total_hours

    def test_opportunity_cost_consistent_with_shifting(self, session):
        load = session.hourly_facility_load_kwh()
        report = opportunity_cost_of_profile(
            load, session.grid, deferrable_fraction=0.3, window_h=24
        )
        shifting = evaluate_load_shifting(
            facility_load_kwh=load,
            grid=session.grid,
            policy=LoadShiftingPolicy(deferrable_fraction=0.3, window_h=24, signal="carbon"),
        )
        assert report.environmental_opportunity_cost_kg == pytest.approx(
            shifting.baseline_emissions_kg - shifting.shifted_emissions_kg, rel=1e-9
        )

    def test_load_shifting_saves_emissions(self, session):
        outcome = evaluate_load_shifting(
            facility_load_kwh=session.hourly_facility_load_kwh(),
            grid=session.grid,
            policy=LoadShiftingPolicy(),
        )
        assert outcome.emissions_savings_fraction > 0.0
        assert outcome.shifted_energy_mwh == pytest.approx(outcome.baseline_energy_mwh, rel=1e-9)

    def test_deadline_options(self, session):
        rows = {row["option"]: row for row in session.run("deadlines").rows}
        assert rows["rolling"]["energy_mwh"] < rows["actual"]["energy_mwh"]

    def test_job_trace_generation(self, session):
        jobs = session.job_trace(n_jobs=50, horizon_h=48.0)
        assert len(jobs) == 50
        assert all(j.submit_time_h <= 48.0 for j in jobs)


class TestEndToEndOptimization:
    def test_optimize_operations_small(self):
        session = ExperimentSession(
            seed=1, n_months=2, facility=FacilityConfig(n_nodes=8, gpus_per_node=2)
        )
        jobs = session.job_trace(n_jobs=40, horizon_h=48.0)
        outcome = session.optimize_operations(
            jobs,
            horizon_h=4 * 24.0,
            activity_floor_fraction=0.8,
            points=[
                OperatingPoint(policy_name="backfill"),
                OperatingPoint(policy_name="energy-aware", power_cap_fraction=0.75),
            ],
        )
        assert outcome.best is not None
        assert outcome.best.evaluation.feasible
        # The energy-aware capped point should beat (or match) uncapped backfill
        # on facility energy while staying feasible.
        assert outcome.savings_vs_baseline() >= 0.0


class TestStressIntegration:
    def test_stress_tests_ranked_by_severity(self):
        session = ExperimentSession(
            seed=2, n_months=12, facility=FacilityConfig(n_nodes=32, gpus_per_node=2)
        )
        rows = {row["scenario"]: row for row in session.run("stress").rows}
        assert rows["severely-adverse"]["energy_increase_pct"] > 0.0


class TestTrackerToReportPipeline:
    def test_tracked_training_run_lands_on_leaderboard(self):
        from repro.telemetry import SimulatedNvml
        from repro.tracking import EnergyTracker, ExperimentReport, ReportCollection

        collection = ReportCollection()
        for label, utilization in (("efficient", 0.6), ("hungry", 0.95)):
            nvml = SimulatedNvml.create(4, "V100", seed=0, measurement_noise_fraction=0.0)
            tracker = EnergyTracker(nvml, region="ISO-NE", sampling_period_s=60.0, label=label)
            with tracker:
                for handle in nvml.devices:
                    nvml.set_utilization(handle, utilization)
                tracker.advance(2 * 3600.0)
            collection.add(
                ExperimentReport.from_tracker(
                    tracker.report(), task="imagenet", performance_metric="top1", performance_value=0.76
                )
            )
        ranked = collection.leaderboard(by="performance_per_kwh")
        assert ranked[0].name == "efficient"
        assert collection.total_energy_kwh() > 0
