"""Grid carbon intensity derived from the hourly fuel mix.

Converts the generation shares produced by :class:`~repro.grid.fuel_mix.FuelMixModel`
into grams of CO2-equivalent per kWh using standard life-cycle emission
factors per fuel.  Carbon-aware scheduling and the emission accounting in the
tracking layer both consume this series.
"""

from __future__ import annotations

from typing import Mapping, Union

import numpy as np

from ..errors import DataError
from ..timeutils import SimulationCalendar
from .fuel_mix import FUEL_TYPES, GenerationMix

__all__ = ["EMISSION_FACTORS_G_PER_KWH", "CarbonIntensityModel"]

ArrayLike = Union[float, np.ndarray]

#: Life-cycle emission factors in gCO2e per kWh generated, by fuel.
#: Values follow the IPCC AR5 median life-cycle estimates, with "other"
#: representing a blend of oil, refuse and imports typical of ISO-NE.
EMISSION_FACTORS_G_PER_KWH: Mapping[str, float] = {
    "solar": 41.0,
    "wind": 11.0,
    "hydro": 24.0,
    "nuclear": 12.0,
    "natural_gas": 490.0,
    "other": 650.0,
}


class CarbonIntensityModel:
    """Maps fuel-mix shares to grid carbon intensity (gCO2e/kWh).

    Parameters
    ----------
    emission_factors:
        Optional override of the per-fuel emission factors; must provide a
        non-negative value for every fuel in :data:`FUEL_TYPES`.
    """

    def __init__(self, emission_factors: Mapping[str, float] | None = None) -> None:
        factors = dict(EMISSION_FACTORS_G_PER_KWH)
        if emission_factors is not None:
            factors.update(emission_factors)
        missing = [fuel for fuel in FUEL_TYPES if fuel not in factors]
        if missing:
            raise DataError(f"missing emission factors for fuels: {missing}")
        negative = [fuel for fuel in FUEL_TYPES if factors[fuel] < 0]
        if negative:
            raise DataError(f"emission factors must be non-negative, offending fuels: {negative}")
        self.emission_factors = {fuel: float(factors[fuel]) for fuel in FUEL_TYPES}
        self._factor_vector = np.asarray([self.emission_factors[f] for f in FUEL_TYPES])

    def intensity_from_shares(self, shares: np.ndarray) -> np.ndarray:
        """Carbon intensity for an (n_hours, n_fuels) share array."""
        arr = np.asarray(shares, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != len(FUEL_TYPES):
            raise DataError(
                f"shares must have shape (n_hours, {len(FUEL_TYPES)}), got {arr.shape}"
            )
        return arr @ self._factor_vector

    def intensity_series(self, mix: GenerationMix) -> np.ndarray:
        """Hourly carbon intensity (gCO2e/kWh) for a generation mix."""
        return self.intensity_from_shares(mix.shares)

    def monthly_intensity(
        self, calendar: SimulationCalendar, mix: GenerationMix
    ) -> np.ndarray:
        """Demand-weighted monthly mean carbon intensity."""
        intensity = self.intensity_series(mix)
        month_index = calendar.month_indices_for_hours(mix.hours)
        out = np.empty(calendar.n_months, dtype=float)
        for i in range(calendar.n_months):
            mask = month_index == i
            if not np.any(mask):
                raise DataError(f"no hours found for month index {i}")
            out[i] = float(np.average(intensity[mask], weights=mix.demand_mw[mask]))
        return out
