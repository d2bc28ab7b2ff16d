"""Monthly aggregation container.

All of the paper's empirical figures are monthly series over the 2020-2021
window.  :class:`MonthlySeries` is a small labelled container for one such
series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..timeutils import SimulationCalendar

__all__ = ["MonthlySeries"]


@dataclass(frozen=True)
class MonthlySeries:
    """One monthly series with its labels and unit.

    Attributes
    ----------
    name:
        Series name (e.g. ``"avg_power_kw"``).
    values:
        One value per month.
    month_labels:
        Human-readable month labels aligned with ``values``.
    unit:
        Unit string for display.
    """

    name: str
    values: np.ndarray
    month_labels: tuple[str, ...]
    unit: str = ""

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise DataError("values must be 1-D")
        if len(self.month_labels) != values.shape[0]:
            raise DataError("month_labels must align with values")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_hourly(
        cls,
        name: str,
        hourly_values: np.ndarray,
        calendar: SimulationCalendar,
        *,
        how: str = "mean",
        unit: str = "",
    ) -> "MonthlySeries":
        """Aggregate an hourly series into a monthly one (``how`` is 'mean' or 'sum')."""
        if how == "mean":
            values = calendar.monthly_mean(hourly_values)
        elif how == "sum":
            values = calendar.monthly_sum(hourly_values)
        else:
            raise DataError(f"how must be 'mean' or 'sum', got {how!r}")
        return cls(name=name, values=values, month_labels=tuple(calendar.labels()), unit=unit)

    def describe(self) -> dict[str, float]:
        """Min/max/mean/std summary."""
        return {
            "min": float(self.values.min()),
            "max": float(self.values.max()),
            "mean": float(self.values.mean()),
            "std": float(self.values.std()),
        }

    def argmax_label(self) -> str:
        """Label of the month with the largest value."""
        return self.month_labels[int(np.argmax(self.values))]

    def argmin_label(self) -> str:
        """Label of the month with the smallest value."""
        return self.month_labels[int(np.argmin(self.values))]
