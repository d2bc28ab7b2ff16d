"""Tests for the training-job and inference-fleet workload models."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.inference import InferenceFleetModel, InferenceWorkloadSpec
from repro.workloads.training import (
    STANDARD_WORKLOADS,
    ScalingEfficiencyModel,
    TrainingJobModel,
    TrainingJobSpec,
)


class TestScalingEfficiency:
    def test_single_gpu_is_unit(self):
        model = ScalingEfficiencyModel()
        assert model.speedup(1) == pytest.approx(1.0)

    def test_speedup_monotone_but_sublinear(self):
        model = ScalingEfficiencyModel()
        speedups = [model.speedup(n) for n in (1, 2, 4, 8, 16, 32)]
        assert all(b > a for a, b in zip(speedups, speedups[1:]))
        assert model.speedup(32) < 32.0

    def test_efficiency_decreases(self):
        model = ScalingEfficiencyModel()
        assert model.speedup(16) / 16 < model.speedup(2) / 2

    def test_invalid_gpu_count(self):
        with pytest.raises(ConfigurationError):
            ScalingEfficiencyModel().speedup(0)

    def test_perfect_scaling_limit(self):
        ideal = ScalingEfficiencyModel(serial_fraction=0.0, comm_overhead_per_log2_gpu=0.0)
        assert ideal.speedup(8) == pytest.approx(8.0)


class TestTrainingJobModel:
    @pytest.fixture(scope="class")
    def model(self) -> TrainingJobModel:
        return TrainingJobModel(TrainingJobSpec(name="test", single_gpu_hours=100.0))

    def test_more_gpus_finish_sooner(self, model):
        assert model.wall_clock_hours(8) < model.wall_clock_hours(2)

    def test_power_cap_slows_down(self, model):
        assert model.wall_clock_hours(4, 0.6) > model.wall_clock_hours(4, None)

    def test_run_energy_components(self, model):
        result = model.run(4)
        assert result.gpu_energy_kwh > 0
        assert result.host_energy_kwh > 0
        assert result.total_energy_kwh == pytest.approx(result.gpu_energy_kwh + result.host_energy_kwh)
        assert result.gpu_hours == pytest.approx(4 * result.wall_clock_hours)

    def test_capped_run_saves_gpu_energy(self, model):
        uncapped = model.run(4, None)
        capped = model.run(4, 0.7)
        assert capped.gpu_energy_kwh < uncapped.gpu_energy_kwh
        assert capped.wall_clock_hours > uncapped.wall_clock_hours

    def test_more_gpus_cost_more_energy(self, model):
        """Parallelism is paid for: total energy grows with GPU count (efficiency loss)."""
        small = model.run(2)
        large = model.run(16)
        assert large.total_energy_kwh > small.total_energy_kwh

    def test_standard_workload_catalogue(self):
        assert "imagenet-resnet50" in STANDARD_WORKLOADS
        for spec in STANDARD_WORKLOADS.values():
            TrainingJobModel(spec).run(4)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            TrainingJobSpec(name="bad", single_gpu_hours=0.0)


class TestInferenceFleet:
    @pytest.fixture(scope="class")
    def model(self) -> InferenceFleetModel:
        spec = InferenceWorkloadSpec(name="svc", mean_queries_per_s=500.0)
        return InferenceFleetModel(spec, seed=0)

    def test_required_gpus_covers_peak(self, model):
        fleet = model.required_gpus()
        capacity = fleet * model.spec.queries_per_gpu_s_at_full_util * model.spec.utilization_at_saturation
        assert capacity >= model.peak_queries_per_s()

    def test_serve_reports_low_utilization(self, model):
        """Serving fleets sized for peak run at the poor utilization the paper cites (10-40%)."""
        result = model.serve(period_days=14.0)
        assert 0.05 < result.mean_utilization < 0.45

    def test_energy_positive_and_split(self, model):
        result = model.serve(period_days=7.0)
        assert result.gpu_energy_kwh > 0
        assert result.host_energy_kwh > 0
        assert result.total_queries > 0

    def test_smaller_fleet_higher_utilization(self, model):
        provisioned = model.serve(period_days=7.0)
        lean = model.serve(period_days=7.0, n_gpus=max(1, provisioned.n_gpus // 2))
        assert lean.mean_utilization > provisioned.mean_utilization
        assert lean.total_energy_kwh < provisioned.total_energy_kwh

    def test_hourly_rate_diurnal(self, model):
        rates = model.hourly_query_rate(48)
        assert rates.shape == (48,)
        assert rates.min() > 0

    def test_invalid_inputs(self, model):
        with pytest.raises(ConfigurationError):
            model.serve(period_days=0.0)
        with pytest.raises(ConfigurationError):
            model.hourly_query_rate(0)
        with pytest.raises(ConfigurationError):
            InferenceWorkloadSpec(name="bad", mean_queries_per_s=0.0)
