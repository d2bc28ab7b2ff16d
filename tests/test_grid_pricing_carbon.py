"""Tests for the price and carbon-intensity models and the grid facade."""

import numpy as np
import pytest

from repro.analysis.correlation import pearson_correlation
from repro.errors import ConfigurationError, DataError
from repro.grid.carbon_intensity import EMISSION_FACTORS_G_PER_KWH, CarbonIntensityModel
from repro.grid.fuel_mix import FUEL_TYPES, FuelMixModel
from repro.grid.pricing import LmpPriceConfig, LmpPriceModel


class TestCarbonIntensity:
    def test_gas_heavy_mix_dirtier_than_renewable_mix(self):
        model = CarbonIntensityModel()
        gas_mix = np.zeros((1, len(FUEL_TYPES)))
        gas_mix[0, FUEL_TYPES.index("natural_gas")] = 1.0
        wind_mix = np.zeros((1, len(FUEL_TYPES)))
        wind_mix[0, FUEL_TYPES.index("wind")] = 1.0
        assert model.intensity_from_shares(gas_mix)[0] > model.intensity_from_shares(wind_mix)[0]

    def test_intensity_bounded_by_fuel_factors(self, year_calendar):
        model = CarbonIntensityModel()
        mix = FuelMixModel(seed=0).generate(year_calendar)
        intensity = model.intensity_series(mix)
        assert intensity.min() >= min(EMISSION_FACTORS_G_PER_KWH.values()) - 1e-9
        assert intensity.max() <= max(EMISSION_FACTORS_G_PER_KWH.values()) + 1e-9

    def test_missing_factor_rejected(self):
        with pytest.raises(DataError):
            CarbonIntensityModel(emission_factors={"solar": -1.0})

    def test_override_changes_result(self):
        base = CarbonIntensityModel()
        greener_gas = CarbonIntensityModel(emission_factors={"natural_gas": 300.0})
        shares = np.zeros((1, len(FUEL_TYPES)))
        shares[0, FUEL_TYPES.index("natural_gas")] = 1.0
        assert greener_gas.intensity_from_shares(shares)[0] < base.intensity_from_shares(shares)[0]

    def test_monthly_intensity_shape(self, year_calendar):
        model = CarbonIntensityModel()
        mix = FuelMixModel(seed=0).generate(year_calendar)
        monthly = model.monthly_intensity(year_calendar, mix)
        assert monthly.shape == (12,)
        assert np.all(monthly > 0)

    def test_annual_average_in_plausible_range(self, year_calendar):
        model = CarbonIntensityModel()
        mix = FuelMixModel(seed=0).generate(year_calendar)
        avg = float(np.average(model.intensity_series(mix), weights=mix.demand_mw))
        # ISO-NE's average intensity is a few hundred gCO2e/kWh.
        assert 150.0 < avg < 550.0

    def test_wrong_shape_rejected(self):
        with pytest.raises(DataError):
            CarbonIntensityModel().intensity_from_shares(np.ones((4, 2)))


class TestLmpPriceModel:
    def test_prices_positive_and_in_band(self, year_calendar):
        mix = FuelMixModel(seed=1).generate(year_calendar)
        prices = LmpPriceModel(seed=1).price_series(year_calendar, mix)
        assert np.all(prices >= LmpPriceConfig().price_floor_per_mwh)
        monthly = LmpPriceModel(seed=1).monthly_average_price(year_calendar, mix, prices)
        # The paper's Fig. 3 shows monthly averages roughly between $20 and $50.
        assert monthly.min() > 15.0
        assert monthly.max() < 60.0

    def test_price_anticorrelated_with_renewables(self, year_calendar):
        model = LmpPriceModel(seed=1)
        fuel = FuelMixModel(seed=1)
        mix = fuel.generate(year_calendar)
        prices = model.monthly_average_price(year_calendar, mix)
        renewables = fuel.monthly_renewable_share(year_calendar, mix)
        assert pearson_correlation(prices, renewables) < 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LmpPriceConfig(renewable_discount=1.5)
        with pytest.raises(ConfigurationError):
            LmpPriceConfig(winter_gas_premium=0.8)

    def test_mix_horizon_mismatch_rejected(self, small_calendar, year_calendar):
        mix = FuelMixModel(seed=0).generate(small_calendar)
        with pytest.raises(DataError):
            LmpPriceModel(seed=0).price_series(year_calendar, mix)


class TestIsoNeLikeGrid:
    def test_series_aligned(self, year_grid):
        n = year_grid.hours.shape[0]
        assert year_grid.carbon_intensity_g_per_kwh.shape == (n,)
        assert year_grid.price_per_mwh.shape == (n,)
        assert year_grid.renewable_share.shape == (n,)

    def test_monthly_summary(self, year_grid):
        monthly = year_grid.monthly
        assert len(monthly.month_labels) == 12
        assert monthly.renewable_share_pct.min() > 0

    def test_carbon_anticorrelated_with_renewable_share(self, year_grid):
        corr = pearson_correlation(
            year_grid.monthly.carbon_intensity_g_per_kwh, year_grid.monthly.renewable_share_pct
        )
        assert corr < 0
