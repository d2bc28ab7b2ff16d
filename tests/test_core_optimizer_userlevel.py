"""Tests for the Eq. 1 optimizer and the Eq. 2 per-user decomposition."""

import pytest

from repro.config import FacilityConfig
from repro.cluster.cooling import CoolingModel
from repro.cluster.resources import Cluster
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.levers import OperatingPoint, make_scheduler
from repro.core.objective import ActivityConstraint, ActivityKind, EnergyObjective
from repro.core.optimizer import DatacenterOptimizer
from repro.core.user_level import per_user_decomposition
from repro.errors import OptimizationError


FACILITY = FacilityConfig(n_nodes=8, gpus_per_node=2)


@pytest.fixture(scope="module")
def optimizer(small_weather, small_grid):
    return DatacenterOptimizer(
        FACILITY,
        EnergyObjective(),
        ActivityConstraint(ActivityKind.DELIVERED_GPU_HOURS, alpha=0.0),
        simulation_config=SimulationConfig(horizon_h=5 * 24.0),
        weather_hourly_c=small_weather,
        cooling=CoolingModel(),
        grid=small_grid,
    )


@pytest.fixture(scope="module")
def trace(small_facility):
    from repro.workloads.supercloud import SuperCloudTraceConfig, SuperCloudTraceGenerator

    generator = SuperCloudTraceGenerator(SuperCloudTraceConfig(facility=FACILITY), seed=11)
    return generator.generate_jobs(n_jobs=60, horizon_h=3 * 24.0)


class TestDatacenterOptimizer:
    def test_evaluate_point_runs(self, optimizer, trace):
        evaluated = optimizer.evaluate_point(OperatingPoint(policy_name="backfill"), trace)
        assert evaluated.evaluation.objective_value > 0
        assert evaluated.result.completed_jobs > 0

    def test_supply_fraction_drains_nodes(self, optimizer, trace):
        full = optimizer.evaluate_point(OperatingPoint(supply_fraction=1.0), trace)
        reduced = optimizer.evaluate_point(OperatingPoint(supply_fraction=0.5), trace)
        # Draining idle nodes removes their idle power from the bill.
        assert reduced.result.it_energy_kwh < full.result.it_energy_kwh

    def test_optimize_picks_feasible_minimum(self, optimizer, trace):
        points = [
            OperatingPoint(policy_name="backfill"),
            OperatingPoint(policy_name="energy-aware", power_cap_fraction=0.7),
            OperatingPoint(policy_name="energy-aware", power_cap_fraction=0.7, supply_fraction=0.75),
        ]
        outcome = optimizer.optimize(trace, points)
        assert outcome.best is not None
        objective_values = [e.evaluation.objective_value for e in outcome.feasible_points]
        assert outcome.best.evaluation.objective_value == pytest.approx(min(objective_values))
        assert outcome.baseline is not None
        assert 0.0 <= outcome.savings_vs_baseline() < 1.0
        assert len(outcome.frontier_records()) == len(outcome.evaluated)

    def test_infeasible_activity_floor_yields_no_best(self, small_weather, small_grid, trace):
        impossible = DatacenterOptimizer(
            FACILITY,
            EnergyObjective(),
            ActivityConstraint(ActivityKind.DELIVERED_GPU_HOURS, alpha=1e9),
            simulation_config=SimulationConfig(horizon_h=5 * 24.0),
            weather_hourly_c=small_weather,
            cooling=CoolingModel(),
            grid=small_grid,
        )
        outcome = impossible.optimize(trace, [OperatingPoint(policy_name="backfill")])
        assert outcome.best is None
        assert outcome.savings_vs_baseline() == 0.0

    def test_empty_inputs_rejected(self, optimizer, trace):
        with pytest.raises(OptimizationError):
            optimizer.optimize([], [OperatingPoint()])
        with pytest.raises(OptimizationError):
            optimizer.optimize(trace, [])

    def test_jobs_are_cloned_not_mutated(self, optimizer, trace):
        optimizer.evaluate_point(OperatingPoint(), trace)
        assert all(job.is_pending for job in trace)


class TestPerUserDecomposition:
    @pytest.fixture(scope="class")
    def result(self, job_trace, small_facility):
        simulator = ClusterSimulator(
            Cluster(small_facility),
            make_scheduler("backfill"),
            SimulationConfig(horizon_h=8 * 24.0),
        )
        return simulator.run([j.clone_pending() for j in job_trace])

    def test_energy_identity_holds(self, result):
        accounting = per_user_decomposition(result)
        assert accounting.verify_identity(tolerance=1e-6)
        assert accounting.attributed_energy_kwh <= accounting.total_facility_energy_kwh + 1e-6

    def test_every_user_present(self, result):
        accounting = per_user_decomposition(result)
        users_in_trace = {r.user_id for r in result.job_records}
        assert set(accounting.profiles) == users_in_trace

    def test_idle_overhead_positive(self, result):
        """A mostly idle cluster burns power no user is responsible for."""
        accounting = per_user_decomposition(result)
        assert accounting.idle_overhead_kwh > 0
        assert 0.0 < accounting.attribution_fraction < 1.0

    def test_heaviest_users_sorted(self, result):
        accounting = per_user_decomposition(result)
        top = accounting.heaviest_users(3)
        energies = [p.facility_energy_kwh for p in top]
        assert energies == sorted(energies, reverse=True)

    def test_energy_concentration_bounds(self, result):
        accounting = per_user_decomposition(result)
        share = accounting.energy_concentration(0.2)
        assert 0.0 < share <= 1.0
        assert accounting.energy_concentration(1.0) == pytest.approx(1.0)
        with pytest.raises(OptimizationError):
            accounting.energy_concentration(0.0)

    def test_per_user_metrics(self, result):
        accounting = per_user_decomposition(result)
        profile = next(iter(accounting.profiles.values()))
        assert profile.n_jobs >= profile.completed_jobs
        assert profile.it_energy_kwh <= profile.facility_energy_kwh + 1e-12
