"""Tests for the power sampler and energy integrator."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry.nvml_sim import SimulatedNvml
from repro.telemetry.sampler import EnergyIntegrator, PowerSampler


class TestEnergyIntegrator:
    def test_empty_and_single_sample(self):
        integ = EnergyIntegrator()
        assert integ.energy_j() == 0.0
        integ.add(0.0, 100.0)
        assert integ.energy_j() == 0.0
        assert integ.peak_power_w() == 100.0

    def test_constant_power(self):
        integ = EnergyIntegrator()
        for t in range(11):
            integ.add(float(t), 200.0)
        assert integ.energy_j() == pytest.approx(2000.0)
        assert integ.mean_power_w() == pytest.approx(200.0)

    def test_rejects_decreasing_time(self):
        integ = EnergyIntegrator()
        integ.add(1.0, 10.0)
        with pytest.raises(TelemetryError):
            integ.add(0.5, 10.0)

    def test_rejects_negative_power(self):
        with pytest.raises(TelemetryError):
            EnergyIntegrator().add(0.0, -5.0)


class TestPowerSampler:
    def _nvml(self, n=2):
        nvml = SimulatedNvml.create(n, "V100", seed=0, measurement_noise_fraction=0.0)
        for handle in nvml.devices:
            nvml.set_utilization(handle, 1.0)
        return nvml

    def test_run_integrates_energy(self):
        nvml = self._nvml(2)
        sampler = PowerSampler(nvml, period_s=10.0)
        sampler.run(3600.0)
        # Two V100s at TDP for one hour = 2 * 250 W * 3600 s.
        assert sampler.energy_j() == pytest.approx(2 * 250.0 * 3600.0, rel=1e-3)
        assert nvml.total_energy_j() == pytest.approx(sampler.energy_j(), rel=1e-3)

    def test_per_device_energy(self):
        nvml = self._nvml(2)
        sampler = PowerSampler(nvml, period_s=5.0)
        sampler.run(100.0)
        total = sampler.energy_j()
        per_device = sampler.energy_j(0) + sampler.energy_j(1)
        assert per_device == pytest.approx(total, rel=1e-9)

    def test_partial_period_handled(self):
        nvml = self._nvml(1)
        sampler = PowerSampler(nvml, period_s=7.0)
        sampler.run(10.0)
        assert nvml.clock_s == pytest.approx(10.0)

    def test_device_subset(self):
        nvml = self._nvml(3)
        sampler = PowerSampler(nvml, period_s=1.0, devices=[0, 2])
        sampler.run(10.0)
        assert sampler.energy_j(0) > 0
        with pytest.raises(TelemetryError):
            sampler.energy_j(1)

    def test_invalid_period(self):
        with pytest.raises(TelemetryError):
            PowerSampler(self._nvml(1), period_s=0.0)

    def test_mean_and_peak_power(self):
        nvml = self._nvml(1)
        sampler = PowerSampler(nvml, period_s=1.0)
        sampler.run(60.0)
        assert sampler.mean_power_w() == pytest.approx(250.0, rel=1e-6)
        assert sampler.peak_power_w() == pytest.approx(250.0, rel=1e-6)
