"""Tests for the energy tracker, emissions, reporting, and life-cycle accounting."""

import json

import pytest

from repro.errors import DataError, TrackingError
from repro.telemetry.nvml_sim import SimulatedNvml
from repro.tracking.emissions import (
    REGIONAL_EMISSION_FACTORS,
    emissions_from_energy,
    equivalent_miles_driven,
    get_emission_factor,
)
from repro.tracking.lifecycle import LifecycleCostModel
from repro.tracking.reporting import ExperimentReport, ReportCollection
from repro.tracking.tracker import EnergyTracker
from repro.workloads.inference import InferenceWorkloadSpec
from repro.workloads.training import TrainingJobSpec


class TestEmissions:
    def test_region_lookup(self):
        assert get_emission_factor("iso-ne").region == "ISO-NE"
        with pytest.raises(DataError):
            get_emission_factor("mars")

    def test_emissions_by_region_name(self):
        grams = float(emissions_from_energy(3.6e6, "ISO-NE"))
        assert grams == pytest.approx(REGIONAL_EMISSION_FACTORS["ISO-NE"].g_co2e_per_kwh)

    def test_emissions_by_numeric_intensity(self):
        assert float(emissions_from_energy(3.6e6, 100.0)) == pytest.approx(100.0)

    def test_negative_intensity_rejected(self):
        with pytest.raises(DataError):
            emissions_from_energy(3.6e6, -5.0)

    def test_cleaner_grid_lower_emissions(self):
        dirty = float(emissions_from_energy(3.6e9, "MISO"))
        clean = float(emissions_from_energy(3.6e9, "FRANCE"))
        assert clean < dirty

    def test_equivalences(self):
        assert float(equivalent_miles_driven(404.0)) == pytest.approx(1.0)
        with pytest.raises(DataError):
            equivalent_miles_driven(-1.0)


def _tracked_run(utilization: float = 0.9, hours: float = 1.0, n_devices: int = 2) -> EnergyTracker:
    nvml = SimulatedNvml.create(n_devices, "V100", seed=0, measurement_noise_fraction=0.0)
    tracker = EnergyTracker(nvml, region="ISO-NE", sampling_period_s=30.0, label="unit-test")
    with tracker:
        for handle in nvml.devices:
            nvml.set_utilization(handle, utilization)
        tracker.advance(hours * 3600.0)
    return tracker


class TestEnergyTracker:
    def test_report_contents(self):
        tracker = _tracked_run()
        report = tracker.report()
        assert report.label == "unit-test"
        assert report.duration_s == pytest.approx(3600.0)
        assert report.n_devices == 2
        assert report.energy_kwh > 0
        assert report.emissions_g > 0
        assert report.emissions_kg == pytest.approx(report.emissions_g / 1e3)
        assert set(report.per_device_energy_j) == {0, 1}

    def test_energy_matches_analytic_value(self):
        tracker = _tracked_run(utilization=1.0, hours=2.0, n_devices=1)
        report = tracker.report()
        assert report.energy_kwh == pytest.approx(2 * 250.0 / 1e3, rel=5e-3)
        assert report.mean_power_w == pytest.approx(250.0, rel=5e-3)

    def test_higher_utilization_more_energy(self):
        low = _tracked_run(utilization=0.2).report().energy_kwh
        high = _tracked_run(utilization=0.95).report().energy_kwh
        assert high > low

    def test_numeric_region(self):
        nvml = SimulatedNvml.create(1, "V100", seed=0)
        tracker = EnergyTracker(nvml, region=100.0)
        with tracker:
            tracker.advance(600.0)
        assert tracker.report().emissions_g > 0

    def test_lifecycle_misuse_rejected(self):
        nvml = SimulatedNvml.create(1, "V100", seed=0)
        tracker = EnergyTracker(nvml)
        with pytest.raises(TrackingError):
            tracker.report()
        with pytest.raises(TrackingError):
            tracker.advance(10.0)
        tracker.start()
        with pytest.raises(TrackingError):
            tracker.start()
        tracker.stop()
        with pytest.raises(TrackingError):
            tracker.stop()
        with pytest.raises(TrackingError):
            tracker.advance(10.0)

    def test_invalid_sampling_period(self):
        nvml = SimulatedNvml.create(1, "V100", seed=0)
        with pytest.raises(TrackingError):
            EnergyTracker(nvml, sampling_period_s=0.0)


class TestReporting:
    def _report(self, name: str, value: float, energy: float) -> ExperimentReport:
        return ExperimentReport(
            name=name,
            task="imagenet",
            performance_metric="top1",
            performance_value=value,
            energy_kwh=energy,
            emissions_kg=energy * 0.3,
            duration_h=5.0,
            gpu_hours=20.0,
            hardware="4x V100",
        )

    def test_from_tracker(self):
        tracker_report = _tracked_run().report()
        report = ExperimentReport.from_tracker(
            tracker_report, task="cifar", performance_metric="acc", performance_value=0.93
        )
        assert report.energy_kwh == pytest.approx(tracker_report.energy_kwh)
        assert report.gpu_hours == pytest.approx(tracker_report.duration_s / 3600.0 * 2)

    def test_performance_per_kwh(self):
        assert self._report("a", 0.9, 3.0).performance_per_kwh == pytest.approx(0.3)

    def test_leaderboard_ordering(self):
        collection = ReportCollection([self._report("eff", 0.9, 1.0), self._report("hungry", 0.95, 100.0)])
        ranked = collection.leaderboard(by="performance_per_kwh")
        assert ranked[0].name == "eff"
        ranked_by_value = collection.leaderboard(by="value")
        assert ranked_by_value[0].name == "hungry"

    def test_leaderboard_unknown_column(self):
        collection = ReportCollection([self._report("a", 0.9, 1.0)])
        with pytest.raises(TrackingError):
            collection.leaderboard(by="vibes")

    def test_totals(self):
        collection = ReportCollection([self._report("a", 0.9, 1.0), self._report("b", 0.8, 2.0)])
        assert collection.total_energy_kwh() == pytest.approx(3.0)
        assert collection.total_emissions_kg() == pytest.approx(0.9)

    def test_csv_and_json_and_markdown(self):
        collection = ReportCollection([self._report("a", 0.9, 1.0)])
        csv_text = collection.to_csv()
        assert "name" in csv_text.splitlines()[0]
        parsed = json.loads(collection.to_json())
        assert parsed[0]["name"] == "a"
        markdown = collection.to_markdown()
        assert "| rank |" in markdown
        assert ReportCollection().to_markdown() == "(no experiments reported)"

    def test_negative_values_rejected(self):
        with pytest.raises(TrackingError):
            ExperimentReport(
                name="x", task="t", performance_metric="m", performance_value=1.0,
                energy_kwh=-1.0, emissions_kg=0.0, duration_h=0.0, gpu_hours=0.0,
            )


class TestLifecycle:
    @pytest.fixture(scope="class")
    def model(self) -> LifecycleCostModel:
        return LifecycleCostModel(
            TrainingJobSpec(name="prod-model", single_gpu_hours=400.0),
            InferenceWorkloadSpec(name="prod-serving", mean_queries_per_s=600.0),
            development_multiplier=4.0,
            training_gpus=8,
            seed=0,
        )

    def test_shares_sum_to_one(self, model):
        breakdown = model.breakdown(365.0)
        assert sum(breakdown.shares().values()) == pytest.approx(1.0)

    def test_inference_dominates_long_deployments(self, model):
        """The paper's 80-90% inference share should appear for year-long deployments."""
        breakdown = model.breakdown(365.0)
        assert breakdown.inference_share > 0.6
        assert breakdown.training_share < 0.2

    def test_inference_share_grows_with_lifetime(self, model):
        shares = model.inference_share_vs_lifetime((30.0, 365.0, 730.0))
        assert shares[730.0] > shares[365.0] > shares[30.0]

    def test_serving_utilization_well_below_training(self, model):
        breakdown = model.breakdown(365.0)
        assert breakdown.inference_mean_utilization < 0.5 * breakdown.training_utilization

    def test_development_multiplier_scales(self):
        cheap = LifecycleCostModel(
            TrainingJobSpec(name="m", single_gpu_hours=100.0),
            InferenceWorkloadSpec(name="s", mean_queries_per_s=100.0),
            development_multiplier=0.0,
            seed=0,
        ).breakdown(30.0)
        assert cheap.development_kwh == 0.0

    def test_invalid_deployment(self, model):
        with pytest.raises(Exception):
            model.breakdown(0.0)
