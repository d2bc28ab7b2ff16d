"""Tests for the fuel-mix model (the substrate behind Figs. 2-3)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.grid.fuel_mix import FUEL_TYPES, FuelMixConfig, FuelMixModel, GenerationMix


@pytest.fixture(scope="module")
def year_mix(year_calendar):
    model = FuelMixModel(seed=0)
    return model, model.generate(year_calendar)


class TestFuelMixConfig:
    def test_defaults_valid(self):
        FuelMixConfig()

    def test_rejects_bad_month(self):
        with pytest.raises(ConfigurationError):
            FuelMixConfig(demand_peak_month=13)

    def test_rejects_excessive_baseload(self):
        with pytest.raises(ConfigurationError):
            FuelMixConfig(hydro_share=0.5, nuclear_share=0.5)

    def test_rejects_negative_noise(self):
        with pytest.raises(ConfigurationError):
            FuelMixConfig(weather_noise_std=-0.1)


class TestGenerationMix:
    def test_shares_sum_to_one(self, year_mix):
        _, mix = year_mix
        np.testing.assert_allclose(mix.shares.sum(axis=1), 1.0, atol=1e-9)

    def test_shares_non_negative(self, year_mix):
        _, mix = year_mix
        assert np.all(mix.shares >= 0)

    def test_share_of_unknown_fuel(self, year_mix):
        _, mix = year_mix
        with pytest.raises(DataError):
            mix.share_of("coal-to-liquids")

    def test_renewable_share_is_solar_plus_wind(self, year_mix):
        _, mix = year_mix
        np.testing.assert_allclose(
            mix.renewable_share(), mix.share_of("solar") + mix.share_of("wind")
        )

    def test_shape_validation(self):
        with pytest.raises(DataError):
            GenerationMix(
                hours=np.arange(5.0),
                shares=np.ones((5, 3)),
                demand_mw=np.ones(5),
            )


class TestSeasonality:
    def test_solar_zero_at_night(self):
        model = FuelMixModel(seed=0)
        factor = model.solar_capacity_factor(np.array([100.0]), np.array([2.0]))
        assert float(factor[0]) == pytest.approx(0.0)

    def test_solar_positive_at_noon(self):
        model = FuelMixModel(seed=0)
        factor = model.solar_capacity_factor(np.array([172.0]), np.array([12.5]))
        assert float(factor[0]) > 0.5

    def test_wind_peaks_in_late_winter(self):
        model = FuelMixModel(seed=0)
        march = float(model.wind_capacity_factor(np.array([75.0]))[0])
        august = float(model.wind_capacity_factor(np.array([230.0]))[0])
        assert march > august

    def test_demand_peaks_in_summer(self):
        model = FuelMixModel(seed=0)
        july = float(model.demand_factor(np.array([197.0]), np.array([15.0]))[0])
        april = float(model.demand_factor(np.array([105.0]), np.array([15.0]))[0])
        assert july > april

    def test_monthly_renewable_share_in_paper_band(self, year_calendar, year_mix):
        model, mix = year_mix
        shares = model.monthly_renewable_share(year_calendar, mix)
        assert shares.shape == (12,)
        # Fig. 2/3 show roughly 4%-9% solar+wind share over the year.
        assert shares.min() > 2.0
        assert shares.max() < 12.0

    def test_spring_greener_than_summer(self, year_calendar, year_mix):
        model, mix = year_mix
        shares = model.monthly_renewable_share(year_calendar, mix)
        spring = shares[2:5].mean()  # Mar-May
        summer = shares[5:8].mean()  # Jun-Aug
        assert spring > summer

    def test_reproducible_with_seed(self, year_calendar):
        a = FuelMixModel(seed=5).generate(year_calendar)
        b = FuelMixModel(seed=5).generate(year_calendar)
        np.testing.assert_allclose(a.shares, b.shares)

    def test_different_seeds_differ(self, year_calendar):
        a = FuelMixModel(seed=5).generate(year_calendar)
        b = FuelMixModel(seed=6).generate(year_calendar)
        assert not np.allclose(a.shares, b.shares)

    def test_fuel_types_constant(self):
        assert FUEL_TYPES == ("solar", "wind", "hydro", "nuclear", "natural_gas", "other")
