"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cooling import CoolingModel
from repro.cluster.events import EventQueue, EventType
from repro.core.policies import LoadShiftingPolicy, _shift_load
from repro.grid.storage import BatteryStorage, StorageConfig
from repro.telemetry.gpu_power import GpuPowerModel, get_gpu_spec
from repro.timeutils import SimulationCalendar
from repro.units import JOULES_PER_KWH, joules_to_kwh


MODEL = GpuPowerModel(get_gpu_spec("V100"))


class TestUnitProperties:
    @given(st.floats(min_value=0.0, max_value=1e15, allow_nan=False))
    def test_kwh_joules_roundtrip(self, kwh):
        assert float(joules_to_kwh(kwh * JOULES_PER_KWH)) == pytest.approx(kwh, rel=1e-12)


class TestGpuPowerProperties:
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_power_between_idle_and_tdp(self, utilization):
        power = float(MODEL.power_w(utilization))
        assert MODEL.spec.idle_power_w - 1e-9 <= power <= MODEL.spec.tdp_w + 1e-9

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=50.0, max_value=300.0),
    )
    def test_capped_power_never_exceeds_cap_or_uncapped(self, utilization, cap):
        capped = float(MODEL.power_w(utilization, cap))
        uncapped = float(MODEL.power_w(utilization))
        enforced = float(MODEL.clamp_power_limit(cap))
        assert capped <= enforced + 1e-9
        assert capped <= uncapped + 1e-9

    @given(
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=100.0, max_value=250.0),
    )
    def test_slowdown_at_least_one_and_energy_never_higher(self, utilization, cap):
        slowdown = float(MODEL.slowdown_factor(cap, utilization))
        assert slowdown >= 1.0 - 1e-12
        capped_energy = float(MODEL.energy_for_work(3600.0, utilization, cap))
        uncapped_energy = float(MODEL.energy_for_work(3600.0, utilization))
        assert capped_energy <= uncapped_energy + 1e-6


class TestCoolingProperties:
    @given(st.floats(min_value=-30.0, max_value=45.0), st.floats(min_value=1.0, max_value=1e6))
    def test_facility_power_at_least_it_power(self, temperature, it_power):
        model = CoolingModel()
        facility = float(model.facility_power_w(it_power, temperature))
        assert facility >= it_power - 1e-9

    @given(st.floats(min_value=-30.0, max_value=45.0))
    def test_pue_at_least_min(self, temperature):
        model = CoolingModel()
        assert float(model.pue(temperature)) >= model.config.min_pue - 1e-12


class TestBatteryProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["charge", "discharge", "idle"]),
                st.floats(min_value=0.0, max_value=500.0),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_soc_bounded_and_energy_balanced(self, operations):
        battery = BatteryStorage(StorageConfig(capacity_kwh=800.0, self_discharge_per_hour=0.0))
        for op, amount in operations:
            if op == "charge":
                battery.charge(amount)
            elif op == "discharge":
                battery.discharge(amount)
            else:
                battery.idle(1.0)
        assert -1e-9 <= battery.soc_kwh <= battery.config.capacity_kwh + 1e-9
        balance = (
            battery.total_charged_kwh - battery.total_discharged_kwh - battery.total_losses_kwh
        )
        assert balance == pytest.approx(battery.soc_kwh, abs=1e-6)


class TestLoadShiftingProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=8, max_size=96),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=48),
    )
    @settings(max_examples=60, deadline=None)
    def test_energy_conserved_and_non_negative(self, load, fraction, window):
        load_arr = np.asarray(load)
        signal = np.cos(np.arange(load_arr.shape[0]))
        policy = LoadShiftingPolicy(deferrable_fraction=fraction, window_h=window, signal="carbon")
        shifted = _shift_load(load_arr, signal, policy)
        assert shifted.min() >= -1e-9
        assert shifted.sum() == pytest.approx(load_arr.sum(), rel=1e-9, abs=1e-6)


class TestCalendarProperties:
    @given(st.integers(min_value=2018, max_value=2030), st.integers(min_value=1, max_value=36))
    @settings(max_examples=30, deadline=None)
    def test_month_boundaries_partition_the_horizon(self, start_year, n_months):
        calendar = SimulationCalendar(start_year, n_months)
        total = sum(calendar.month_length_hours(i) for i in range(n_months))
        assert total == calendar.total_hours
        # Every hour maps to exactly one month and the mapping is monotone.
        hours = np.linspace(0, calendar.total_hours - 1, num=min(200, calendar.total_hours))
        indices = calendar.month_indices_for_hours(hours)
        assert np.all(np.diff(indices) >= 0)
        assert indices[0] == 0
        assert indices[-1] == n_months - 1

    @given(
        st.integers(min_value=1890, max_value=2110),
        st.integers(min_value=1, max_value=60),
        st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=1, max_size=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_day_of_year_array_is_the_scalar_bytes(self, start_year, n_months, fractions):
        calendar = SimulationCalendar(start_year, n_months)
        last = np.nextafter(calendar.total_hours, 0.0)
        hours = np.minimum(np.asarray(fractions) * calendar.total_hours, last)

        def day_of_year(hour):
            # The horizon starts in January, so a year starts month - 1 months back.
            index = max(i for i in range(n_months) if calendar.month_start_hour(i) <= hour)
            start = calendar.month_start_hour(index)
            year_start = calendar.month_start_hour(index - calendar.months[index].month + 1)
            return ((start - year_start) + (hour - start)) / 24.0

        scalar = np.asarray([day_of_year(h) for h in hours])
        assert calendar.day_of_year_array(hours).tobytes() == scalar.tobytes()

    @given(st.integers(min_value=1, max_value=24))
    @settings(max_examples=20, deadline=None)
    def test_monthly_mean_of_constant_is_constant(self, n_months):
        calendar = SimulationCalendar(2020, n_months)
        values = np.full(calendar.total_hours, 3.7)
        np.testing.assert_allclose(calendar.monthly_mean(values), 3.7)


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_events_pop_in_time_order(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(t, EventType.TICK)
        popped = [queue.pop().time_h for _ in range(len(times))]
        assert popped == sorted(popped)

    @given(
        st.lists(
            st.tuples(
                # A few repeated instants force ties on time (and on priority).
                st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 100.0)),
                st.sampled_from(list(EventType)),
                # Dicts do not support ``<``: ordering must never reach the payload.
                st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_pop_order_is_sort_key(self, pushes):
        queue = EventQueue()
        for time_h, event_type, payload in pushes:
            queue.push(time_h, event_type, payload)
        popped = [queue.pop() for _ in pushes]
        keys = [(event.time_h, event.priority, event.sequence) for event in popped]
        assert keys == sorted(keys)
        assert [event.priority for event in popped] == [int(e.event_type) for e in popped]
        # Same-key ties are impossible: sequences are unique.
        assert len({event.sequence for event in popped}) == len(popped)
        assert queue.is_empty()
