"""Tests for the simulated NVML layer."""

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.telemetry.nvml_sim import NvmlNotInitializedError, SimulatedNvml


class TestSimulatedNvml:
    def test_create_and_count(self):
        nvml = SimulatedNvml.create(4, "V100", seed=0)
        assert nvml.device_count() == 4

    def test_requires_init(self):
        nvml = SimulatedNvml.create(1, "V100", seed=0)
        nvml.shutdown()
        with pytest.raises(NvmlNotInitializedError):
            nvml.device_count()

    def test_handle_out_of_range(self):
        nvml = SimulatedNvml.create(2, "V100", seed=0)
        with pytest.raises(TelemetryError):
            nvml.get_handle(5)

    def test_idle_power_near_spec(self):
        nvml = SimulatedNvml.create(1, "V100", seed=0, measurement_noise_fraction=0.0)
        handle = nvml.get_handle(0)
        assert nvml.device_power_usage_w(handle) == pytest.approx(handle.spec.idle_power_w)

    def test_set_utilization_changes_power(self):
        nvml = SimulatedNvml.create(1, "V100", seed=0, measurement_noise_fraction=0.0)
        handle = nvml.get_handle(0)
        idle = nvml.device_power_usage_w(handle)
        nvml.set_utilization(handle, 0.95)
        assert nvml.device_power_usage_w(handle) > idle

    def test_set_utilization_validates_range(self):
        nvml = SimulatedNvml.create(1, "V100", seed=0)
        with pytest.raises(TelemetryError):
            nvml.set_utilization(nvml.get_handle(0), 1.5)

    def test_power_limit_clamped_and_enforced(self):
        nvml = SimulatedNvml.create(1, "V100", seed=0, measurement_noise_fraction=0.0)
        handle = nvml.get_handle(0)
        enforced = nvml.device_set_power_limit_w(handle, 10.0)
        assert enforced == pytest.approx(handle.spec.min_power_limit_w)
        nvml.set_utilization(handle, 1.0)
        assert nvml.device_power_usage_w(handle) == pytest.approx(enforced)

    def test_advance_time_accumulates_energy(self):
        nvml = SimulatedNvml.create(2, "V100", seed=0, measurement_noise_fraction=0.0)
        for handle in nvml.devices:
            nvml.set_utilization(handle, 1.0)
        energy = nvml.advance_time(3600.0)
        assert energy == pytest.approx(2 * 250.0 * 3600.0, rel=1e-6)
        assert nvml.total_energy_j() == pytest.approx(energy)
        assert nvml.clock_s == pytest.approx(3600.0)

    def test_negative_advance_rejected(self):
        nvml = SimulatedNvml.create(1, "V100", seed=0)
        with pytest.raises(TelemetryError):
            nvml.advance_time(-1.0)

    def test_temperature_rises_under_load(self):
        nvml = SimulatedNvml.create(1, "V100", seed=0)
        handle = nvml.get_handle(0)
        start = handle.temperature_c
        nvml.set_utilization(handle, 1.0)
        nvml.advance_time(600.0)
        assert handle.temperature_c > start

    def test_zero_devices_rejected(self):
        with pytest.raises(TelemetryError):
            SimulatedNvml.create(0)

    def test_measurement_noise_zero_mean(self):
        nvml = SimulatedNvml.create(1, "V100", seed=1, measurement_noise_fraction=0.02)
        handle = nvml.get_handle(0)
        nvml.set_utilization(handle, 0.9)
        true = handle.true_power_w()
        samples = [nvml.device_power_usage_w(handle) for _ in range(300)]
        assert np.mean(samples) == pytest.approx(true, rel=0.01)
