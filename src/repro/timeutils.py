"""Simulation-calendar helpers.

The paper's figures are monthly aggregates over the 2020-2021 window, while
the simulation substrates operate in continuous time (seconds or hours).
This module provides a tiny calendar model that maps between the two without
pulling in timezone-aware datetimes: simulated time starts at hour 0 of
January 1st of ``start_year`` and advances in hours.  Months use their true
lengths (with leap years), so 24 simulated months spanning 2020-2021 line up
with the paper's x-axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "MONTH_ABBREVIATIONS",
    "is_leap_year",
    "days_in_month",
    "hours_in_month",
    "MonthIndex",
    "SimulationCalendar",
]

MONTH_ABBREVIATIONS: tuple[str, ...] = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)

_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def is_leap_year(year: int) -> bool:
    """True for Gregorian leap years (2020 is, 2021 is not)."""
    return (year % 4 == 0 and year % 100 != 0) or year % 400 == 0


def days_in_month(year: int, month: int) -> int:
    """Number of days in ``month`` (1-12) of ``year``."""
    if not 1 <= month <= 12:
        raise DataError(f"month must be in 1..12, got {month!r}")
    if month == 2 and is_leap_year(year):
        return 29
    return _DAYS_IN_MONTH[month - 1]


def hours_in_month(year: int, month: int) -> int:
    """Number of hours in ``month`` of ``year``."""
    return days_in_month(year, month) * 24


@dataclass(frozen=True)
class MonthIndex:
    """A (year, month) pair identifying one calendar month in the simulation.

    ``month`` is 1-based (January == 1) to match the paper's figures.
    """

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise DataError(f"month must be in 1..12, got {self.month!r}")

    @property
    def label(self) -> str:
        """Short label such as ``"Jul 2020"`` for reports and figure axes."""
        return f"{MONTH_ABBREVIATIONS[self.month - 1]} {self.year}"

    def next(self) -> "MonthIndex":
        """The month immediately following this one."""
        if self.month == 12:
            return MonthIndex(self.year + 1, 1)
        return MonthIndex(self.year, self.month + 1)


class SimulationCalendar:
    """Maps simulated hours to calendar months and back.

    Parameters
    ----------
    start_year:
        Calendar year at which simulated hour 0 falls (January 1st, 00:00).
    n_months:
        Number of months covered by the simulation horizon.
    """

    def __init__(self, start_year: int = 2020, n_months: int = 24) -> None:
        if n_months <= 0:
            raise DataError(f"n_months must be positive, got {n_months!r}")
        self.start_year = int(start_year)
        self.n_months = int(n_months)
        self._months: list[MonthIndex] = []
        self._month_start_hours: list[int] = []
        # Hours from Jan 1 of each month's year to the month's start.
        self._year_offset_hours: list[int] = []
        hour = 0
        year_start_hour = 0
        current = MonthIndex(self.start_year, 1)
        for _ in range(self.n_months):
            if current.month == 1:
                year_start_hour = hour
            self._months.append(current)
            self._month_start_hours.append(hour)
            self._year_offset_hours.append(hour - year_start_hour)
            hour += hours_in_month(current.year, current.month)
            current = current.next()
        self._total_hours = hour
        self._start_hours_array = np.asarray(self._month_start_hours, dtype=float)
        self._year_offset_array = np.asarray(self._year_offset_hours, dtype=float)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def total_hours(self) -> int:
        """Total number of simulated hours across the horizon."""
        return self._total_hours

    @property
    def months(self) -> Sequence[MonthIndex]:
        """The months covered, in order."""
        return tuple(self._months)

    def __len__(self) -> int:
        return self.n_months

    def __iter__(self) -> Iterator[MonthIndex]:
        return iter(self._months)

    # ------------------------------------------------------------------
    # Hour <-> month mapping
    # ------------------------------------------------------------------
    def month_start_hour(self, index: int) -> int:
        """Simulated hour at which month ``index`` (0-based) begins."""
        return self._month_start_hours[self._check_index(index)]

    def month_length_hours(self, index: int) -> int:
        """Number of hours in month ``index`` (0-based)."""
        month = self._months[self._check_index(index)]
        return hours_in_month(month.year, month.month)

    def month_indices_for_hours(self, hours: np.ndarray) -> np.ndarray:
        """0-based month index containing each simulated hour (fractional hours allowed).

        Hours outside the horizon raise :class:`DataError`.
        """
        arr = np.asarray(hours, dtype=float)
        if arr.size and (arr.min() < 0 or arr.max() >= self._total_hours):
            raise DataError("hours outside the simulated horizon")
        return np.searchsorted(self._start_hours_array, arr, side="right") - 1

    def hour_grid(self, step_hours: float = 1.0) -> np.ndarray:
        """Uniform grid of simulated hours covering the horizon (end exclusive)."""
        if step_hours <= 0:
            raise DataError(f"step_hours must be positive, got {step_hours!r}")
        return np.arange(0.0, float(self._total_hours), float(step_hours))

    def day_of_year_array(self, hours: np.ndarray) -> np.ndarray:
        """Fractional day of year (0-based) of each simulated hour.

        The hour within its calendar year divided by 24, for the seasonal
        weather, fuel-mix and demand models; one array pass per series.
        """
        arr = np.asarray(hours, dtype=float)
        index = self.month_indices_for_hours(arr)
        return (self._year_offset_array[index] + (arr - self._start_hours_array[index])) / 24.0

    def month_of_year_array(self) -> np.ndarray:
        """1-12 month-of-year number for every month in the horizon."""
        return np.asarray([m.month for m in self._months], dtype=int)

    def year_array(self) -> np.ndarray:
        """Calendar year for every month in the horizon."""
        return np.asarray([m.year for m in self._months], dtype=int)

    def labels(self) -> list[str]:
        """Human-readable labels (``"Jan 2020"``, ...) for every month."""
        return [m.label for m in self._months]

    # ------------------------------------------------------------------
    # Aggregation helpers
    # ------------------------------------------------------------------
    def monthly_mean(self, hourly_values: np.ndarray) -> np.ndarray:
        """Average an hourly series into per-month means.

        ``hourly_values`` must have exactly :attr:`total_hours` entries
        (one per simulated hour).
        """
        values = np.asarray(hourly_values, dtype=float)
        if values.shape != (self._total_hours,):
            raise DataError(
                f"expected {self._total_hours} hourly values, got shape {values.shape}"
            )
        out = np.empty(self.n_months, dtype=float)
        for i in range(self.n_months):
            start = self._month_start_hours[i]
            stop = start + self.month_length_hours(i)
            out[i] = values[start:stop].mean()
        return out

    def monthly_sum(self, hourly_values: np.ndarray) -> np.ndarray:
        """Sum an hourly series into per-month totals."""
        values = np.asarray(hourly_values, dtype=float)
        if values.shape != (self._total_hours,):
            raise DataError(
                f"expected {self._total_hours} hourly values, got shape {values.shape}"
            )
        out = np.empty(self.n_months, dtype=float)
        for i in range(self.n_months):
            start = self._month_start_hours[i]
            stop = start + self.month_length_hours(i)
            out[i] = values[start:stop].sum()
        return out

    def _check_index(self, index: int) -> int:
        if not 0 <= index < self.n_months:
            raise DataError(
                f"month index {index!r} outside [0, {self.n_months})"
            )
        return index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationCalendar(start_year={self.start_year}, n_months={self.n_months}, "
            f"total_hours={self._total_hours})"
        )
