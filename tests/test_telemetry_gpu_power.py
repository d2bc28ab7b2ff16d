"""Tests for the GPU power/throughput model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TelemetryError
from repro.telemetry.gpu_power import KNOWN_GPUS, GpuPowerModel, GpuSpec, get_gpu_spec


@pytest.fixture(scope="module")
def v100_model() -> GpuPowerModel:
    return GpuPowerModel(get_gpu_spec("V100"))


class TestGpuSpec:
    def test_known_gpus_have_consistent_specs(self):
        for spec in KNOWN_GPUS.values():
            assert 0 <= spec.idle_power_w < spec.tdp_w
            assert spec.min_power_limit_w <= spec.tdp_w

    def test_lookup_case_insensitive(self):
        assert get_gpu_spec("v100").name == "V100"
        assert get_gpu_spec(" a100 ").name == "A100"

    def test_unknown_gpu(self):
        with pytest.raises(TelemetryError):
            get_gpu_spec("H999")

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            GpuSpec(
                name="bad",
                tdp_w=100.0,
                idle_power_w=150.0,  # idle above TDP
                min_power_limit_w=50.0,
                base_clock_mhz=1000.0,
                max_boost_clock_mhz=1100.0,
                memory_gb=16.0,
                peak_fp16_tflops=10.0,
            )


class TestPowerCurve:
    def test_idle_power_at_zero_utilization(self, v100_model):
        assert v100_model.power_w(0.0) == pytest.approx(v100_model.spec.idle_power_w)

    def test_tdp_at_full_utilization(self, v100_model):
        assert v100_model.power_w(1.0) == pytest.approx(v100_model.spec.tdp_w)

    def test_power_monotone_in_utilization(self, v100_model):
        utils = np.linspace(0, 1, 21)
        powers = np.asarray(v100_model.power_w(utils))
        assert np.all(np.diff(powers) >= 0)

    def test_utilization_clipped(self, v100_model):
        assert v100_model.power_w(1.5) == pytest.approx(v100_model.spec.tdp_w)
        assert v100_model.power_w(-0.5) == pytest.approx(v100_model.spec.idle_power_w)

    def test_cap_limits_power(self, v100_model):
        capped = v100_model.power_w(1.0, 150.0)
        assert capped == pytest.approx(150.0)

    def test_cap_does_not_bind_at_low_utilization(self, v100_model):
        uncapped = v100_model.power_w(0.3)
        assert v100_model.power_w(0.3, 200.0) == pytest.approx(float(uncapped))

    def test_clamp_power_limit(self, v100_model):
        spec = v100_model.spec
        assert v100_model.clamp_power_limit(10.0) == pytest.approx(spec.min_power_limit_w)
        assert v100_model.clamp_power_limit(1e4) == pytest.approx(spec.tdp_w)


class TestThroughputUnderCaps:
    def test_no_cap_no_slowdown(self, v100_model):
        assert v100_model.relative_throughput(v100_model.spec.tdp_w) == pytest.approx(1.0)

    def test_slowdown_at_least_one(self, v100_model):
        caps = np.linspace(v100_model.spec.min_power_limit_w, v100_model.spec.tdp_w, 10)
        slowdowns = np.asarray(v100_model.slowdown_factor(caps))
        assert np.all(slowdowns >= 1.0 - 1e-12)

    def test_throughput_decreases_with_tighter_caps(self, v100_model):
        caps = np.linspace(v100_model.spec.min_power_limit_w, v100_model.spec.tdp_w, 10)
        throughputs = np.asarray(v100_model.relative_throughput(caps))
        assert np.all(np.diff(throughputs) >= 0)

    def test_cap_not_binding_means_no_slowdown(self, v100_model):
        # At 40% utilization the device draws well under 200 W, so a 200 W cap is free.
        assert float(v100_model.slowdown_factor(200.0, utilization=0.4)) == pytest.approx(1.0)

    def test_knee_shape_savings_exceed_penalty(self, v100_model):
        """Moderate caps save more energy than they cost in runtime (the [15] claim)."""
        cap = 0.8 * v100_model.spec.tdp_w
        slowdown = float(v100_model.slowdown_factor(cap, 1.0))
        capped = float(v100_model.energy_for_work(1.0, 1.0, cap))
        savings = 1.0 - capped / float(v100_model.energy_for_work(1.0, 1.0))
        assert savings > (slowdown - 1.0)


class TestEnergyForWork:
    def test_uncapped_energy(self, v100_model):
        energy = float(v100_model.energy_for_work(3600.0, 1.0))
        assert energy == pytest.approx(v100_model.spec.tdp_w * 3600.0)

    def test_capped_energy_less_than_uncapped_for_saturating_work(self, v100_model):
        uncapped = float(v100_model.energy_for_work(3600.0, 1.0))
        capped = float(v100_model.energy_for_work(3600.0, 1.0, 0.7 * v100_model.spec.tdp_w))
        assert capped < uncapped

    def test_energy_savings_zero_when_cap_not_binding(self, v100_model):
        capped = float(v100_model.energy_for_work(3600.0, 0.2, 240.0))
        assert capped == pytest.approx(float(v100_model.energy_for_work(3600.0, 0.2)), rel=1e-9)

    def test_negative_duration_rejected(self, v100_model):
        with pytest.raises(TelemetryError):
            v100_model.energy_for_work(-1.0, 1.0)
