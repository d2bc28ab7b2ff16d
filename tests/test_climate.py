"""Tests for the weather model, climate scenarios, and stress catalogue."""

import numpy as np
import pytest

from repro.climate.scenarios import (
    AmplifiedSeasonsScenario,
    ColdSnapScenario,
    CompositeScenario,
    HeatWaveScenario,
    UniformWarmingScenario,
)
from repro.climate.stress_scenarios import STANDARD_STRESS_SCENARIOS
from repro.climate.weather import WeatherConfig, WeatherModel
from repro.config import SiteConfig
from repro.errors import ConfigurationError, DataError


@pytest.fixture(scope="module")
def year_weather(year_calendar):
    model = WeatherModel(seed=0)
    return model, model.hourly_temperature_c(year_calendar)


class TestWeatherModel:
    def test_series_length(self, year_calendar, year_weather):
        _, hourly = year_weather
        assert hourly.shape == (year_calendar.total_hours,)

    def test_summer_warmer_than_winter(self, year_calendar, year_weather):
        model, hourly = year_weather
        monthly = model.monthly_mean_temperature_c(year_calendar, hourly)
        assert monthly[6] > monthly[0]          # July vs January
        assert monthly[6] > monthly[11]         # July vs December

    def test_monthly_means_near_boston_normals(self, year_calendar, year_weather):
        model, hourly = year_weather
        monthly = model.monthly_mean_temperature_c(year_calendar, hourly)
        assert -12.0 < monthly[0] < 5.0          # January
        assert 16.0 < monthly[6] < 30.0          # July

    def test_fahrenheit_conversion(self, year_calendar, year_weather):
        model, hourly = year_weather
        c = model.monthly_mean_temperature_c(year_calendar, hourly)
        f = model.monthly_mean_temperature_f(year_calendar, hourly)
        np.testing.assert_allclose(f, c * 9 / 5 + 32)

    def test_afternoon_warmer_than_early_morning(self):
        model = WeatherModel(WeatherConfig(noise_std_c=0.0))
        afternoon = model.expected_temperature_c(np.array([200.0]), np.array([15.0]))
        dawn = model.expected_temperature_c(np.array([200.0]), np.array([4.0]))
        assert float(afternoon[0]) > float(dawn[0])

    def test_reproducible(self, year_calendar):
        a = WeatherModel(seed=3).hourly_temperature_c(year_calendar)
        b = WeatherModel(seed=3).hourly_temperature_c(year_calendar)
        np.testing.assert_allclose(a, b)

    @pytest.mark.parametrize("n", [1, 2, 8784])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.96, 1])
    def test_ar1_noise_is_the_indexed_loop_bytes(self, n, rho):
        config = WeatherConfig(noise_std_c=2.5, noise_autocorrelation=rho)
        reference_rng = WeatherModel(config, seed=11)._rng
        innovation_std = 2.5 * np.sqrt(max(1.0 - rho**2, 1e-12))
        innovations = reference_rng.normal(0.0, innovation_std, size=n)
        reference = np.empty(n)
        reference[0] = reference_rng.normal(0.0, 2.5)
        for i in range(1, n):
            reference[i] = rho * reference[i - 1] + innovations[i]
        noise = WeatherModel(config, seed=11)._ar1_noise(n)
        assert noise.tobytes() == reference.tobytes()

    def test_noise_free_model_is_deterministic_function_of_time(self, small_calendar):
        model = WeatherModel(WeatherConfig(noise_std_c=0.0), seed=1)
        other = WeatherModel(WeatherConfig(noise_std_c=0.0), seed=2)
        np.testing.assert_allclose(
            model.hourly_temperature_c(small_calendar), other.hourly_temperature_c(small_calendar)
        )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            WeatherConfig(peak_hour_of_day=25.0)
        with pytest.raises(ConfigurationError):
            WeatherConfig(noise_autocorrelation=1.5)

    def test_custom_site(self, small_calendar):
        hot_site = SiteConfig(name="phoenix", mean_annual_temperature_c=23.0)
        hot = WeatherModel(WeatherConfig(site=hot_site, noise_std_c=0.0)).hourly_temperature_c(small_calendar)
        default = WeatherModel(WeatherConfig(noise_std_c=0.0)).hourly_temperature_c(small_calendar)
        assert hot.mean() > default.mean()


class TestClimateScenarios:
    def test_uniform_warming_adds_offset(self, year_calendar, year_weather):
        _, hourly = year_weather
        warmed = UniformWarmingScenario(2.5).apply(year_calendar, hourly)
        np.testing.assert_allclose(warmed, hourly + 2.5)

    def test_amplified_seasons_preserves_mean(self, year_calendar, year_weather):
        _, hourly = year_weather
        amplified = AmplifiedSeasonsScenario(1.3).apply(year_calendar, hourly)
        assert amplified.mean() == pytest.approx(hourly.mean())
        assert amplified.std() > hourly.std()

    def test_heat_wave_localised(self, year_calendar, year_weather):
        _, hourly = year_weather
        scenario = HeatWaveScenario(start_day=180.0, duration_days=7.0, peak_excess_c=10.0)
        modified = scenario.apply(year_calendar, hourly)
        delta = modified - hourly
        assert delta.max() == pytest.approx(10.0, abs=0.2)
        # Outside the wave the series is untouched.
        assert np.allclose(delta[: 170 * 24], 0.0)
        assert np.allclose(delta[200 * 24 :], 0.0)

    def test_cold_snap_lowers_temperature(self, year_calendar, year_weather):
        _, hourly = year_weather
        scenario = ColdSnapScenario(start_day=20.0, duration_days=5.0, peak_excess_c=12.0)
        modified = scenario.apply(year_calendar, hourly)
        assert modified.min() < hourly.min()

    def test_composite_applies_in_order(self, year_calendar, year_weather):
        _, hourly = year_weather
        composite = CompositeScenario([UniformWarmingScenario(1.0), UniformWarmingScenario(2.0)])
        np.testing.assert_allclose(composite.apply(year_calendar, hourly), hourly + 3.0)
        assert "uniform-warming" in composite.name

    def test_composite_requires_scenarios(self):
        with pytest.raises(ConfigurationError):
            CompositeScenario([])

    def test_wrong_length_rejected(self, year_calendar):
        with pytest.raises(DataError):
            UniformWarmingScenario(1.0).apply(year_calendar, np.zeros(10))

    def test_scenarios_do_not_mutate_input(self, year_calendar, year_weather):
        _, hourly = year_weather
        copy = hourly.copy()
        UniformWarmingScenario(5.0).apply(year_calendar, hourly)
        np.testing.assert_allclose(hourly, copy)


class TestStressCatalogue:
    def test_catalogue_contains_baseline(self):
        names = [s.name for s in STANDARD_STRESS_SCENARIOS]
        assert "baseline" in names
        assert len(names) == len(set(names))

    def test_severities_ordered(self):
        severities = [s.severity for s in STANDARD_STRESS_SCENARIOS]
        assert severities == sorted(severities)

    def test_spec_validation(self):
        from repro.climate.stress_scenarios import StressScenarioSpec

        with pytest.raises(ConfigurationError):
            StressScenarioSpec(name="bad", description="", severity=5)
        with pytest.raises(ConfigurationError):
            StressScenarioSpec(name="bad", description="", cooling_capacity_fraction=0.0)
