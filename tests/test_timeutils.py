"""Tests for repro.timeutils (simulation calendar)."""

import bisect
import functools

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

    def test_month_indices_vectorized_matches_scalar(self):
        cal = SimulationCalendar(2020, 6)
        hours = np.linspace(0, cal.total_hours - 1, 50)
        vectorized = cal.month_indices_for_hours(hours)
        scalar = np.array([_month_of_hour(cal, h) for h in hours])
        np.testing.assert_array_equal(vectorized, scalar)

    def test_hour_grid_length(self):
        cal = SimulationCalendar(2020, 2)
        assert cal.hour_grid(1.0).shape[0] == cal.total_hours

    def test_hour_grid_rejects_bad_step(self):
        with pytest.raises(DataError):
            SimulationCalendar(2020, 1).hour_grid(0.0)

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


@functools.cache
def _month_starts(cal):
    """Each month's start hour, read one month at a time."""
    return tuple(cal.month_start_hour(i) for i in range(cal.n_months))


def _month_of_hour(cal, hour):
    """The 0-based month containing ``hour`` (>= 0): the last month start at or before it."""
    return bisect.bisect_right(_month_starts(cal), hour) - 1


def _summed_day_of_year(cal, hour):
    """Day of year from first principles: sum the month lengths since Jan 1."""
    index = _month_of_hour(cal, hour)
    month = cal.months[index]
    offset = sum(hours_in_month(month.year, m) for m in range(1, month.month))
    return (offset + (hour - cal.month_start_hour(index))) / 24.0


class TestDayOfYearArray:
    """The vectorized day of year is a per-hour reference, byte for byte."""

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
            scalar = np.asarray([_summed_day_of_year(cal, h) for h in hours])
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
    def test_negative_hours_raise(self, hour):
        cal = SimulationCalendar(2020, 2)
        with pytest.raises(DataError):
            cal.day_of_year_array([0.0, hour])

    def test_hours_past_horizon_raise(self):
        cal = SimulationCalendar(2019, 3)
        with pytest.raises(DataError):
            cal.day_of_year_array(np.append(cal.hour_grid(1.0), cal.total_hours))
