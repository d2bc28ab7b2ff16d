"""Unit conversions shared across the toolkit.

The simulation works in SI units: power in watts, energy in joules and time
in seconds.  This module holds the few conversions the rest of the code
needs: joules to kilowatt-hours (the unit of carbon intensities, in
gCO2e/kWh), trapezoidal integration of a sampled power trace into joules,
and Celsius to Fahrenheit (Fig. 4's axis).

All functions accept scalars or NumPy arrays and are fully vectorized.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import UnitError

__all__ = [
    "ArrayLike",
    "JOULES_PER_KWH",
    "joules_to_kwh",
    "integrate_power",
    "celsius_to_fahrenheit",
]

ArrayLike = Union[float, int, np.ndarray]

JOULES_PER_KWH = 3.6e6


def _check_nonnegative(value: ArrayLike, name: str) -> None:
    """Raise :class:`UnitError` if ``value`` contains a negative entry."""
    arr = np.asarray(value, dtype=float)
    if np.any(arr < 0):
        raise UnitError(f"{name} must be non-negative, got {value!r}")


def joules_to_kwh(joules: ArrayLike) -> ArrayLike:
    """Convert joules to kilowatt-hours."""
    return np.asarray(joules, dtype=float) / JOULES_PER_KWH


def integrate_power(power_w: np.ndarray, timestamps_s: np.ndarray) -> float:
    """Trapezoidal integration of a sampled power trace into energy (joules).

    Parameters
    ----------
    power_w:
        Sampled instantaneous power in watts.
    timestamps_s:
        Monotonically non-decreasing sample times in seconds. Must be the
        same length as ``power_w`` and contain at least two samples.
    """
    power = np.asarray(power_w, dtype=float)
    times = np.asarray(timestamps_s, dtype=float)
    if power.shape != times.shape:
        raise UnitError(
            f"power and timestamps must have identical shapes, got {power.shape} vs {times.shape}"
        )
    if power.ndim != 1 or power.size < 2:
        raise UnitError("integrate_power requires a 1-D trace with at least two samples")
    if np.any(np.diff(times) < 0):
        raise UnitError("timestamps must be non-decreasing")
    _check_nonnegative(power, "power_w")
    return float(np.trapezoid(power, times))


def celsius_to_fahrenheit(celsius: ArrayLike) -> ArrayLike:
    """Convert degrees Celsius to Fahrenheit."""
    return np.asarray(celsius, dtype=float) * 9.0 / 5.0 + 32.0
