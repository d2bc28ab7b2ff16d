"""Tests for the battery model and the purchasing strategies."""

import numpy as np
import pytest

from repro.errors import DataError, SimulationError
from repro.grid.purchasing import (
    BaselinePurchasing,
    GreenWindowPurchasing,
    PriceThresholdPurchasing,
    StorageBackedPurchasing,
    evaluate_purchasing_strategy,
)
from repro.grid.storage import BatteryStorage, StorageConfig


class TestBatteryStorage:
    def test_initial_state(self):
        battery = BatteryStorage(StorageConfig(capacity_kwh=100.0, initial_soc_fraction=0.5))
        assert battery.soc_kwh == pytest.approx(50.0)

    def test_charge_respects_power_limit(self):
        battery = BatteryStorage(StorageConfig(capacity_kwh=1000.0, max_charge_kw=50.0))
        consumed = battery.charge(200.0, duration_h=1.0)
        assert consumed == pytest.approx(50.0)

    def test_charge_respects_capacity(self):
        battery = BatteryStorage(
            StorageConfig(capacity_kwh=10.0, max_charge_kw=1000.0, round_trip_efficiency=1.0)
        )
        consumed = battery.charge(100.0)
        assert consumed == pytest.approx(10.0)
        assert battery.soc_kwh == pytest.approx(10.0)

    def test_round_trip_losses(self):
        config = StorageConfig(capacity_kwh=1000.0, max_charge_kw=1000.0, round_trip_efficiency=0.8)
        battery = BatteryStorage(config)
        battery.charge(100.0)
        assert battery.soc_kwh == pytest.approx(80.0)
        delivered = battery.discharge(1000.0)
        assert delivered == pytest.approx(80.0)
        assert battery.total_losses_kwh == pytest.approx(20.0)

    def test_discharge_limited_by_soc_and_power(self):
        battery = BatteryStorage(
            StorageConfig(capacity_kwh=100.0, max_discharge_kw=30.0, initial_soc_fraction=1.0)
        )
        assert battery.discharge(500.0, duration_h=1.0) == pytest.approx(30.0)

    def test_idle_self_discharge(self):
        battery = BatteryStorage(
            StorageConfig(capacity_kwh=100.0, initial_soc_fraction=1.0, self_discharge_per_hour=0.01)
        )
        lost = battery.idle(1.0)
        assert lost == pytest.approx(1.0)
        assert battery.soc_kwh == pytest.approx(99.0)

    def test_reset(self):
        battery = BatteryStorage(StorageConfig(capacity_kwh=100.0))
        battery.charge(50.0)
        battery.reset()
        assert battery.soc_kwh == pytest.approx(0.0)
        assert battery.total_charged_kwh == 0.0

    def test_negative_inputs_rejected(self):
        battery = BatteryStorage()
        with pytest.raises(SimulationError):
            battery.charge(-1.0)
        with pytest.raises(SimulationError):
            battery.discharge(-1.0)
        with pytest.raises(SimulationError):
            battery.idle(-1.0)

    def test_energy_conservation(self):
        """Charged grid energy = stored + conversion losses; discharge cannot exceed stored."""
        battery = BatteryStorage(StorageConfig(capacity_kwh=500.0, self_discharge_per_hour=0.0))
        rng = np.random.default_rng(0)
        for _ in range(200):
            battery.charge(float(rng.uniform(0, 100)))
            battery.discharge(float(rng.uniform(0, 100)))
        assert battery.total_discharged_kwh <= battery.total_charged_kwh + 1e-9
        balance = battery.total_charged_kwh - battery.total_discharged_kwh - battery.total_losses_kwh
        assert balance == pytest.approx(battery.soc_kwh, abs=1e-6)


def _hourly_series(year_grid):
    n = year_grid.hours.shape[0]
    return dict(
        hours=year_grid.hours,
        demand_kwh=np.full(n, 300.0),
        prices_per_mwh=year_grid.price_per_mwh,
        renewable_share=year_grid.renewable_share,
        carbon_intensity_g_per_kwh=year_grid.carbon_intensity_g_per_kwh,
    )


class TestPurchasingStrategies:
    def test_baseline_matches_demand(self, year_grid):
        series = _hourly_series(year_grid)
        outcome = evaluate_purchasing_strategy(BaselinePurchasing(), **series)
        assert outcome.total_purchased_kwh == pytest.approx(outcome.total_demand_kwh)
        assert outcome.storage_losses_kwh == 0.0

    def test_price_threshold_reduces_cost(self, year_grid):
        series = _hourly_series(year_grid)
        baseline = evaluate_purchasing_strategy(BaselinePurchasing(), **series)
        strategy = PriceThresholdPurchasing(BatteryStorage(StorageConfig(capacity_kwh=5000.0)))
        shifted = evaluate_purchasing_strategy(strategy, **series)
        assert shifted.average_price_paid_per_mwh < baseline.average_price_paid_per_mwh

    def test_green_window_increases_green_share_of_purchases(self, year_grid):
        series = _hourly_series(year_grid)
        baseline = evaluate_purchasing_strategy(BaselinePurchasing(), **series)
        strategy = GreenWindowPurchasing(BatteryStorage(StorageConfig(capacity_kwh=5000.0)))
        shifted = evaluate_purchasing_strategy(strategy, **series)
        assert shifted.weighted_renewable_share > baseline.weighted_renewable_share

    def test_storage_backed_cycles_less_than_green_window(self, year_grid):
        series = _hourly_series(year_grid)
        green = evaluate_purchasing_strategy(
            GreenWindowPurchasing(BatteryStorage(StorageConfig(capacity_kwh=5000.0))), **series
        )
        conservative = evaluate_purchasing_strategy(
            StorageBackedPurchasing(BatteryStorage(StorageConfig(capacity_kwh=5000.0))), **series
        )
        assert conservative.storage_losses_kwh <= green.storage_losses_kwh

    def test_energy_balance_with_storage(self, year_grid):
        """Purchases must cover demand minus discharges plus charges (no free energy)."""
        series = _hourly_series(year_grid)
        battery = BatteryStorage(StorageConfig(capacity_kwh=2000.0))
        strategy = GreenWindowPurchasing(battery)
        outcome = evaluate_purchasing_strategy(strategy, **series)
        served_from_battery = battery.total_discharged_kwh
        expected_purchases = outcome.total_demand_kwh - served_from_battery + battery.total_charged_kwh
        assert outcome.total_purchased_kwh == pytest.approx(expected_purchases, rel=1e-9)

    def test_mismatched_series_rejected(self, year_grid):
        series = _hourly_series(year_grid)
        series["demand_kwh"] = series["demand_kwh"][:-1]
        with pytest.raises(DataError):
            evaluate_purchasing_strategy(BaselinePurchasing(), **series)

    def test_green_window_requires_battery(self):
        with pytest.raises(DataError):
            GreenWindowPurchasing(None)  # type: ignore[arg-type]

    def test_invalid_quantiles_rejected(self):
        with pytest.raises(DataError):
            GreenWindowPurchasing(BatteryStorage(), green_quantile=0.2, dirty_quantile=0.5)
