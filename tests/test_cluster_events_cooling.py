"""Tests for the event queue and the cooling models."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.cooling import (
    CoolingConfig,
    CoolingModel,
    FixedOverheadCooling,
    OptimizedCoolingController,
)
from repro.cluster.events import EventQueue, EventType
from repro.errors import ConfigurationError, DataError, SimulationError


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(5.0, EventType.TICK)
        queue.push(1.0, EventType.TICK)
        queue.push(3.0, EventType.TICK)
        times = [queue.pop().time_h for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_finish_before_submit_at_same_time(self):
        queue = EventQueue()
        queue.push(2.0, EventType.JOB_SUBMIT, "submit")
        queue.push(2.0, EventType.JOB_FINISH, "finish")
        assert queue.pop().payload == "finish"
        assert queue.pop().payload == "submit"

    def test_insertion_order_breaks_remaining_ties(self):
        queue = EventQueue()
        queue.push(1.0, EventType.TICK, "a")
        queue.push(1.0, EventType.TICK, "b")
        assert queue.pop().payload == "a"
        assert queue.pop().payload == "b"

    def test_clock_advances(self):
        queue = EventQueue()
        queue.push(4.0, EventType.TICK)
        queue.pop()
        assert queue.now_h == 4.0

    def test_cannot_schedule_in_past(self):
        queue = EventQueue()
        queue.push(4.0, EventType.TICK)
        queue.pop()
        with pytest.raises(SimulationError):
            queue.push(3.0, EventType.TICK)

    def test_pop_empty(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_and_len(self):
        queue = EventQueue()
        assert queue.peek() is None
        queue.push(1.0, EventType.TICK)
        assert queue.peek_time() == 1.0
        assert len(queue) == 1
        queue.pop()
        assert queue.is_empty()


class TestCoolingModel:
    def test_pue_at_reference(self):
        model = CoolingModel()
        assert float(model.pue(model.config.reference_temperature_c)) == pytest.approx(
            model.config.baseline_pue
        )

    def test_pue_monotone_in_temperature_above_threshold(self):
        model = CoolingModel()
        temps = np.linspace(model.config.free_cooling_threshold_c + 0.1, 40.0, 20)
        pues = np.asarray(model.pue(temps))
        assert np.all(np.diff(pues) >= 0)

    def test_free_cooling_floor(self):
        model = CoolingModel()
        assert float(model.pue(-10.0)) == pytest.approx(model.config.min_pue)

    def test_pue_never_below_min(self):
        model = CoolingModel()
        pues = np.asarray(model.pue(np.linspace(-30, 45, 50)))
        assert np.all(pues >= model.config.min_pue - 1e-12)

    def test_facility_power(self):
        model = CoolingModel()
        it = 100e3
        facility = float(model.facility_power_w(it, 20.0))
        assert facility == pytest.approx(it * float(model.pue(20.0)))

    def test_capacity_overload_penalty(self):
        config = CoolingConfig(cooling_capacity_kw=10.0)
        model = CoolingModel(config)
        # Huge IT load forces the overhead past capacity -> doubled excess.
        overhead = float(model.cooling_power_w(1e6, 35.0))
        unlimited = float(CoolingModel(CoolingConfig(cooling_capacity_kw=1e9)).cooling_power_w(1e6, 35.0))
        assert overhead > unlimited
        assert bool(model.is_overloaded(1e6, 35.0))

    def test_with_capacity_fraction(self):
        model = CoolingModel()
        reduced = model.with_capacity_fraction(0.5)
        assert reduced.config.cooling_capacity_kw == pytest.approx(
            model.config.cooling_capacity_kw * 0.5
        )
        with pytest.raises(DataError):
            model.with_capacity_fraction(0.0)
        # Every other field of a non-default config carries over unchanged.
        custom = CoolingConfig(baseline_pue=1.4, min_pue=1.1, free_cooling_threshold_c=5.0)
        halved = CoolingModel(custom).with_capacity_fraction(0.5).config
        assert replace(halved, cooling_capacity_kw=custom.cooling_capacity_kw) == custom

    def test_negative_it_power_rejected(self):
        with pytest.raises(DataError):
            CoolingModel().cooling_power_w(-1.0, 20.0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CoolingConfig(baseline_pue=0.9)
        with pytest.raises(ConfigurationError):
            CoolingConfig(min_pue=1.5, baseline_pue=1.2)


class TestCoolingControllers:
    def test_fixed_overhead_is_weather_insensitive(self):
        fixed = FixedOverheadCooling()
        assert float(fixed.pue(0.0)) == pytest.approx(float(fixed.pue(35.0)))

    def test_optimized_beats_fixed_everywhere(self):
        fixed = FixedOverheadCooling()
        optimized = OptimizedCoolingController()
        temps = np.linspace(-10, 35, 50)
        assert np.all(np.asarray(optimized.pue(temps)) < np.asarray(fixed.pue(temps)))

    def test_annual_cooling_reduction_matches_claim_shape(self, year_calendar):
        """The optimized controller should cut cooling energy by tens of percent
        and PUE overhead by roughly 10-25% (the DeepMind-style claim)."""
        from repro.climate.weather import WeatherModel

        temps = WeatherModel(seed=0).hourly_temperature_c(year_calendar)
        it = np.full(temps.shape, 250e3)
        fixed = FixedOverheadCooling()
        optimized = OptimizedCoolingController()
        fixed_cooling = float(np.sum(fixed.cooling_power_w(it, temps)))
        optimized_cooling = float(np.sum(optimized.cooling_power_w(it, temps)))
        reduction = 1.0 - optimized_cooling / fixed_cooling
        assert 0.25 < reduction < 0.75
        pue_reduction = 1.0 - float(np.mean(optimized.pue(temps))) / float(np.mean(fixed.pue(temps)))
        assert 0.08 < pue_reduction < 0.30
