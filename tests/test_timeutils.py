"""Tests for repro.timeutils (simulation calendar)."""

import numpy as np
import pytest

from repro.errors import DataError
from repro.timeutils import (
    MonthIndex,
    SimulationCalendar,
    days_in_month,
    hours_in_month,
    is_leap_year,
)


class TestLeapYears:
    def test_2020_is_leap(self):
        assert is_leap_year(2020)

    def test_2021_is_not_leap(self):
        assert not is_leap_year(2021)

    def test_centuries(self):
        assert not is_leap_year(1900)
        assert is_leap_year(2000)

    def test_february_lengths(self):
        assert days_in_month(2020, 2) == 29
        assert days_in_month(2021, 2) == 28

    def test_invalid_month_rejected(self):
        with pytest.raises(DataError):
            days_in_month(2020, 13)


class TestMonthIndex:
    def test_label(self):
        assert MonthIndex(2020, 7).label == "Jul 2020"

    def test_next_rolls_over_year(self):
        assert MonthIndex(2020, 12).next() == MonthIndex(2021, 1)

    def test_invalid_month(self):
        with pytest.raises(DataError):
            MonthIndex(2020, 0)


class TestSimulationCalendar:
    def test_total_hours_two_years(self):
        cal = SimulationCalendar(2020, 24)
        assert cal.total_hours == (366 + 365) * 24

    def test_month_count(self):
        cal = SimulationCalendar(2020, 5)
        assert len(cal) == 5
        assert [m.month for m in cal] == [1, 2, 3, 4, 5]

    def test_month_start_hours_monotone(self):
        cal = SimulationCalendar(2020, 12)
        starts = [cal.month_start_hour(i) for i in range(12)]
        assert starts == sorted(starts)
        assert starts[0] == 0
        assert starts[1] == 31 * 24

    def test_month_of_hour(self):
        cal = SimulationCalendar(2020, 3)
        assert cal.month_of_hour(0.0) == 0
        assert cal.month_of_hour(31 * 24) == 1
        assert cal.month_of_hour(31 * 24 - 0.5) == 0

    def test_month_of_hour_out_of_range(self):
        cal = SimulationCalendar(2020, 2)
        with pytest.raises(DataError):
            cal.month_of_hour(cal.total_hours)
        with pytest.raises(DataError):
            cal.month_of_hour(-1.0)

    def test_month_indices_vectorized_matches_scalar(self):
        cal = SimulationCalendar(2020, 6)
        hours = np.linspace(0, cal.total_hours - 1, 50)
        vectorized = cal.month_indices_for_hours(hours)
        scalar = np.array([cal.month_of_hour(h) for h in hours])
        np.testing.assert_array_equal(vectorized, scalar)

    def test_hour_grid_length(self):
        cal = SimulationCalendar(2020, 2)
        assert cal.hour_grid(1.0).shape[0] == cal.total_hours

    def test_hour_grid_rejects_bad_step(self):
        with pytest.raises(DataError):
            SimulationCalendar(2020, 1).hour_grid(0.0)

    def test_hour_of_year_resets_in_second_year(self):
        cal = SimulationCalendar(2020, 24)
        first_hour_2021 = cal.month_start_hour(12)
        assert cal.hour_of_year(first_hour_2021) == pytest.approx(0.0)

    def test_day_of_year(self):
        cal = SimulationCalendar(2020, 12)
        assert cal.day_of_year(0.0) == pytest.approx(0.0)
        assert cal.day_of_year(48.0) == pytest.approx(2.0)

    def test_hour_of_day(self):
        cal = SimulationCalendar(2020, 1)
        assert cal.hour_of_day(25.5) == pytest.approx(1.5)

    def test_monthly_mean_constant_series(self):
        cal = SimulationCalendar(2020, 3)
        values = np.full(cal.total_hours, 5.0)
        np.testing.assert_allclose(cal.monthly_mean(values), 5.0)

    def test_monthly_sum_matches_lengths(self):
        cal = SimulationCalendar(2020, 2)
        values = np.ones(cal.total_hours)
        sums = cal.monthly_sum(values)
        assert sums[0] == pytest.approx(31 * 24)
        assert sums[1] == pytest.approx(29 * 24)

    def test_monthly_mean_rejects_wrong_length(self):
        cal = SimulationCalendar(2020, 2)
        with pytest.raises(DataError):
            cal.monthly_mean(np.ones(10))

    def test_labels_and_year_arrays(self):
        cal = SimulationCalendar(2020, 13)
        assert cal.labels()[0] == "Jan 2020"
        assert cal.labels()[-1] == "Jan 2021"
        assert cal.year_array()[-1] == 2021
        assert cal.month_of_year_array()[-1] == 1

    def test_rejects_zero_months(self):
        with pytest.raises(DataError):
            SimulationCalendar(2020, 0)


def _summed_day_of_year(cal, hour):
    """Day of year from first principles: sum the month lengths since Jan 1."""
    month = cal.months[cal.month_of_hour(hour)]
    offset = sum(hours_in_month(month.year, m) for m in range(1, month.month))
    return (offset + (hour - cal.month_start_hour(cal.month_of_hour(hour)))) / 24.0


class TestDayOfYearArray:
    """The vectorized day of year is the scalar one, byte for byte."""

    START_YEARS = (2020, 2019, 2000, 1900)

    @staticmethod
    def _grids(cal):
        # Hourly, a fractional step that never lands on a month boundary,
        # and the last representable instants before each month ends.
        ends = np.asarray([cal.month_start_hour(i) for i in range(cal.n_months)][1:])
        return (
            cal.hour_grid(1.0),
            cal.hour_grid(0.37),
            np.concatenate([np.nextafter(ends, 0.0), [np.nextafter(cal.total_hours, 0.0)]]),
        )

    @pytest.mark.parametrize("start_year", START_YEARS)
    @pytest.mark.parametrize("n_months", [1, 2, 11, 12, 13, 24, 37, 60])
    def test_byte_equal_to_scalar_loop(self, start_year, n_months):
        cal = SimulationCalendar(start_year, n_months)
        for hours in self._grids(cal):
            scalar = np.asarray([cal.day_of_year(h) for h in hours])
            assert cal.day_of_year_array(hours).tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("start_year", START_YEARS)
    def test_matches_summed_month_lengths(self, start_year):
        cal = SimulationCalendar(start_year, 60)
        hours = cal.hour_grid(0.37)[::97]
        reference = np.asarray([_summed_day_of_year(cal, h) for h in hours])
        assert cal.day_of_year_array(hours).tobytes() == reference.tobytes()

    def test_only_leap_years_reach_day_365(self):
        cal = SimulationCalendar(2000, 60)
        days = cal.day_of_year_array(cal.hour_grid(1.0))
        last_hours = [cal.month_start_hour(12 * k) - 1 for k in range(1, 5)]
        # 2000 is a leap year (divisible by 400); 2001-2003 are not.
        assert [int(days[h]) for h in last_hours] == [365, 364, 364, 364]
        # 1900 is not (divisible by 100 but not by 400).
        assert int(SimulationCalendar(1900, 12).day_of_year_array([8759.5])[0]) == 364

    def test_empty_input(self):
        assert SimulationCalendar(2020, 1).day_of_year_array([]).shape == (0,)

    @pytest.mark.parametrize("hour", [-0.5, -1e-9])
    def test_negative_hours_raise_like_scalar(self, hour):
        cal = SimulationCalendar(2020, 2)
        with pytest.raises(DataError):
            cal.day_of_year(hour)
        with pytest.raises(DataError):
            cal.day_of_year_array([0.0, hour])

    def test_hours_past_horizon_raise_like_scalar(self):
        cal = SimulationCalendar(2019, 3)
        with pytest.raises(DataError):
            cal.day_of_year(float(cal.total_hours))
        with pytest.raises(DataError):
            cal.day_of_year_array(np.append(cal.hour_grid(1.0), cal.total_hours))


class TestSubstrateSeriesAreVectorized:
    """Scenario builds derive calendar series as arrays, never hour by hour.

    A per-hour ``day_of_year`` comprehension over a 24-month horizon is
    17 544 Python calls per series; it made every cold scenario build (and
    every forked fleet worker's grid) cost most of a second.
    """

    def test_scenario_build_makes_no_scalar_calendar_call(self, monkeypatch):
        from repro.experiments import ExperimentSession, get_scenario
        from repro.fleet import get_fleet

        def per_hour_call(self, hour):
            raise AssertionError("per-hour calendar call while building substrates")

        monkeypatch.setattr(SimulationCalendar, "day_of_year", per_hour_call)
        monkeypatch.setattr(SimulationCalendar, "hour_of_year", per_hour_call)
        specs = [get_scenario("supercloud-small"), get_fleet("deca-continental-small").members[3]]
        session = ExperimentSession(specs[0])
        for spec in specs:
            scenario = session.scenario(spec)
            assert scenario.weather_hourly_c.shape == (scenario.calendar.total_hours,)
            assert scenario.grid.carbon_intensity_g_per_kwh.shape == (
                scenario.calendar.total_hours,
            )
            assert scenario.grid.price_per_mwh.shape == (scenario.calendar.total_hours,)
