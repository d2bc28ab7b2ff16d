"""Tests for the Eq. 1 objective/constraint abstractions and the lever grid."""

import numpy as np
import pytest

from repro.core.levers import (
    OperatingPoint,
    SCHEDULER_REGISTRY,
    default_operating_grid,
    make_scheduler,
    register_policy,
    resolve_policy,
)
from repro.scheduler.pipeline import PolicyPipeline
from repro.scheduler.stages import (
    DeadlineOrdering,
    DeadlineSlackGate,
    GreenHourGate,
    PowerBudgetGate,
    StaticCapStage,
)
from repro.core.objective import (
    ActivityConstraint,
    ActivityKind,
    EnergyObjective,
    ObjectiveEvaluation,
    ObjectiveKind,
)
from repro.cluster.simulator import JobRecord, SimulationConfig, SimulationResult
from repro.errors import OptimizationError


def make_result(facility_kwh=100.0, it_kwh=80.0, delivered=50.0, emissions_profile=300.0):
    """A hand-built SimulationResult with controlled totals."""
    ticks = np.arange(0.0, 10.0)
    it_power = np.full(10, it_kwh * 1e3 / 10.0)
    facility_power = np.full(10, facility_kwh * 1e3 / 10.0)
    records = [
        JobRecord(
            job_id="a", user_id="u", queue_name="standard", n_gpus=2,
            submit_time_h=0.0, start_time_h=0.0, finish_time_h=25.0, wait_time_h=0.0,
            baseline_duration_h=delivered / 2, actual_duration_h=delivered / 2,
            power_cap_w=None, energy_j=1e6, completed=True, had_deadline=False, missed_deadline=False,
        )
    ]
    return SimulationResult(
        scheduler_name="test",
        config=SimulationConfig(horizon_h=10.0, tick_h=1.0),
        tick_times_h=ticks,
        it_power_w=it_power,
        facility_power_w=facility_power,
        pue=facility_power / it_power,
        carbon_intensity_g_per_kwh=np.full(10, emissions_profile),
        price_per_mwh=np.full(10, 40.0),
        job_records=records,
    )


class TestEnergyObjective:
    def test_facility_energy_kind(self):
        result = make_result(facility_kwh=120.0)
        assert EnergyObjective(ObjectiveKind.FACILITY_ENERGY_KWH).value(result) == pytest.approx(120.0)

    def test_emissions_kind(self):
        result = make_result(facility_kwh=100.0, emissions_profile=500.0)
        expected = 100.0 * 500.0 / 1e3
        assert EnergyObjective(ObjectiveKind.EMISSIONS_KG).value(result) == pytest.approx(expected)

    def test_cost_kind(self):
        result = make_result(facility_kwh=100.0)
        assert EnergyObjective(ObjectiveKind.COST_USD).value(result) == pytest.approx(100.0 / 1e3 * 40.0)

    def test_blended_objective(self):
        result = make_result()
        plain = EnergyObjective().value(result)
        blended = EnergyObjective(weight_emissions=1.0).value(result)
        assert blended > plain

    def test_negative_weights_rejected(self):
        with pytest.raises(OptimizationError):
            EnergyObjective(weight_cost=-1.0)


class TestActivityConstraint:
    def test_delivered_gpu_hours(self):
        result = make_result(delivered=60.0)
        constraint = ActivityConstraint(ActivityKind.DELIVERED_GPU_HOURS, alpha=50.0)
        assert constraint.value(result) == pytest.approx(60.0)
        assert constraint.satisfied(result)

    def test_unsatisfied(self):
        result = make_result(delivered=10.0)
        assert not ActivityConstraint(ActivityKind.DELIVERED_GPU_HOURS, alpha=50.0).satisfied(result)

    def test_wait_constraint(self):
        result = make_result()
        constraint = ActivityConstraint(ActivityKind.NEGATIVE_MEAN_WAIT_H, alpha=-6.0)
        assert constraint.satisfied(result)

    def test_on_time_fraction(self):
        result = make_result()
        constraint = ActivityConstraint(ActivityKind.ON_TIME_FRACTION, alpha=0.95)
        assert constraint.satisfied(result)

    def test_evaluation_bundle(self):
        result = make_result()
        evaluation = ObjectiveEvaluation.from_result(
            result, EnergyObjective(), ActivityConstraint(alpha=1.0)
        )
        assert evaluation.feasible
        assert "facility_energy_kwh" in evaluation.summary


class TestOperatingPoint:
    def test_label(self):
        point = OperatingPoint(policy_name="energy-aware", power_cap_fraction=0.75, supply_fraction=0.9)
        assert "energy-aware" in point.label()
        assert "75%" in point.label()

    def test_build_scheduler_types(self):
        # Legacy names resolve to canned pipeline compositions carrying the
        # stages that defined the monolithic policies.
        energy = OperatingPoint(policy_name="energy-aware").build_scheduler()
        assert isinstance(energy, PolicyPipeline)
        assert energy.name == "energy-aware"
        assert any(isinstance(g, PowerBudgetGate) for g in energy.gates)
        assert any(isinstance(s, StaticCapStage) for s in energy.power)
        carbon = OperatingPoint(policy_name="carbon-aware").build_scheduler()
        assert isinstance(carbon, PolicyPipeline)
        assert any(isinstance(g, GreenHourGate) for g in carbon.gates)
        deadline = OperatingPoint(policy_name="deadline-aware").build_scheduler()
        assert isinstance(deadline.ordering, DeadlineOrdering)
        assert any(isinstance(g, DeadlineSlackGate) for g in deadline.gates)

    def test_spec_string_is_a_valid_policy_lever(self):
        point = OperatingPoint(policy_name="backfill+carbon(cap=0.7)+budget")
        scheduler = point.build_scheduler()
        assert isinstance(scheduler, PolicyPipeline)
        assert scheduler.name == "backfill+carbon(cap=0.7)+budget"

    def test_validation(self):
        with pytest.raises(OptimizationError):
            OperatingPoint(supply_fraction=0.0)
        with pytest.raises(OptimizationError):
            OperatingPoint(policy_name="round-robin")
        with pytest.raises(OptimizationError):
            OperatingPoint(power_cap_fraction=1.5)

    def test_make_scheduler_unknown(self):
        with pytest.raises(OptimizationError):
            make_scheduler("not-a-policy")


class TestPolicyRegistry:
    def test_legacy_names_registered(self):
        for name in ("fifo", "backfill", "energy-aware", "carbon-aware", "deadline-aware"):
            assert name in SCHEDULER_REGISTRY

    def test_duplicate_registration_raises(self):
        with pytest.raises(OptimizationError, match="already registered"):
            register_policy("backfill", "backfill")

    def test_register_and_build_custom_policy(self):
        definition = register_policy(
            "test-green-sjf",
            "sjf+backfill+carbon(cap=0.8)",
            help="test policy",
            overwrite=True,
        )
        try:
            scheduler = make_scheduler("test-green-sjf", 0.6)
            assert isinstance(scheduler, PolicyPipeline)
            assert scheduler.name == "test-green-sjf"
            # The cap lever appends a static-cap stage for "append"-mode policies.
            assert any(isinstance(s, StaticCapStage) for s in scheduler.power)
            assert definition.effective_spec(0.6).endswith("cap(fraction=0.6)")
        finally:
            del SCHEDULER_REGISTRY["test-green-sjf"]

    def test_registration_validates_spec(self):
        from repro.errors import SchedulingError

        with pytest.raises(SchedulingError, match="no-such-stage"):
            register_policy("broken", "no-such-stage", overwrite=True)
        assert "broken" not in SCHEDULER_REGISTRY

    def test_resolve_policy_error_mentions_catalogue(self):
        with pytest.raises(OptimizationError, match="greenhpc policies"):
            resolve_policy("warp-speed")

    def test_legacy_cap_quirks_preserved(self):
        # fifo/backfill discard the cap lever (the pre-pipeline factories did).
        assert resolve_policy("fifo").effective_spec(0.7) == "fifo"
        # energy-aware always carries a cap stage, defaulting to full TDP.
        assert resolve_policy("energy-aware").effective_spec(None).endswith("cap(fraction=1.0)")

    def test_default_grid_contains_baseline_and_variants(self):
        grid = default_operating_grid()
        labels = {p.label() for p in grid}
        assert len(grid) == len(labels)
        assert any(p.policy_name == "backfill" and p.power_cap_fraction is None for p in grid)
        assert any(p.policy_name == "carbon-aware" for p in grid)
        assert any(p.supply_fraction < 1.0 for p in grid)
