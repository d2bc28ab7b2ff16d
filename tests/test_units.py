"""Tests for repro.units."""

import numpy as np
import pytest

from repro import units
from repro.errors import UnitError


class TestConversions:
    def test_joules_to_kwh(self):
        assert units.joules_to_kwh(units.JOULES_PER_KWH) == pytest.approx(1.0)
        np.testing.assert_allclose(units.joules_to_kwh(np.array([3.6e6, 7.2e6])), [1.0, 2.0])

    def test_celsius_to_fahrenheit(self):
        assert units.celsius_to_fahrenheit(100.0) == pytest.approx(212.0)
        assert units.celsius_to_fahrenheit(-40.0) == pytest.approx(-40.0)


class TestIntegratePower:
    def test_constant_power(self):
        times = np.arange(0.0, 11.0)
        power = np.full(11, 250.0)
        assert units.integrate_power(power, times) == pytest.approx(2500.0)

    def test_linear_ramp(self):
        times = np.array([0.0, 10.0])
        power = np.array([0.0, 100.0])
        assert units.integrate_power(power, times) == pytest.approx(500.0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(UnitError):
            units.integrate_power(np.ones(3), np.ones(4))

    def test_rejects_single_sample(self):
        with pytest.raises(UnitError):
            units.integrate_power(np.ones(1), np.ones(1))

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(UnitError):
            units.integrate_power(np.ones(3), np.array([0.0, 2.0, 1.0]))

    def test_rejects_negative_power(self):
        with pytest.raises(UnitError):
            units.integrate_power(np.array([1.0, -1.0]), np.array([0.0, 1.0]))
