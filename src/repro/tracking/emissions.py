"""Emission factors and energy-to-carbon conversion.

Converts measured energy into CO2-equivalent emissions under a regional grid
mix, and provides the everyday equivalence (miles driven)
that papers such as Strubell et al. [24] popularized and that the paper's
reporting discussion references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from ..errors import DataError
from ..units import joules_to_kwh

__all__ = [
    "EmissionFactor",
    "REGIONAL_EMISSION_FACTORS",
    "emissions_from_energy",
    "equivalent_miles_driven",
]

ArrayLike = Union[float, np.ndarray]

#: Average passenger-vehicle emissions (EPA figure): ~404 gCO2e per mile.
GRAMS_CO2_PER_MILE = 404.0


@dataclass(frozen=True)
class EmissionFactor:
    """A regional grid emission factor.

    Attributes
    ----------
    region:
        Region identifier (ISO/balancing-authority style).
    g_co2e_per_kwh:
        Average grid carbon intensity.
    renewable_share:
        Approximate share of generation from renewables (informational).
    """

    region: str
    g_co2e_per_kwh: float
    renewable_share: float = 0.0

    def __post_init__(self) -> None:
        if self.g_co2e_per_kwh < 0:
            raise DataError("g_co2e_per_kwh must be non-negative")
        if not 0.0 <= self.renewable_share <= 1.0:
            raise DataError("renewable_share must lie in [0, 1]")


#: Representative 2020-2021 average grid intensities (gCO2e/kWh).
REGIONAL_EMISSION_FACTORS: Mapping[str, EmissionFactor] = {
    "ISO-NE": EmissionFactor("ISO-NE", 268.0, 0.12),
    "CAISO": EmissionFactor("CAISO", 210.0, 0.33),
    "PJM": EmissionFactor("PJM", 380.0, 0.06),
    "MISO": EmissionFactor("MISO", 470.0, 0.11),
    "ERCOT": EmissionFactor("ERCOT", 410.0, 0.25),
    "FRANCE": EmissionFactor("FRANCE", 56.0, 0.23),
    "GERMANY": EmissionFactor("GERMANY", 350.0, 0.45),
    "WORLD-AVG": EmissionFactor("WORLD-AVG", 475.0, 0.28),
}


def get_emission_factor(region: str) -> EmissionFactor:
    """Look up a regional emission factor by (case-insensitive) region name."""
    key = region.strip().upper()
    for name, factor in REGIONAL_EMISSION_FACTORS.items():
        if name.upper() == key:
            return factor
    raise DataError(
        f"unknown region {region!r}; known regions: {sorted(REGIONAL_EMISSION_FACTORS)}"
    )


def emissions_from_energy(
    energy_j: ArrayLike, region_or_intensity: Union[str, float, np.ndarray] = "ISO-NE"
) -> ArrayLike:
    """Emissions in grams CO2e for the given energy.

    ``region_or_intensity`` is either a region name from
    :data:`REGIONAL_EMISSION_FACTORS` or a numeric carbon intensity in
    gCO2e/kWh (scalar or an array aligned with ``energy_j``).
    """
    kwh = joules_to_kwh(energy_j)
    if isinstance(region_or_intensity, str):
        intensity = get_emission_factor(region_or_intensity).g_co2e_per_kwh
    else:
        intensity = np.asarray(region_or_intensity, dtype=float)
        if np.any(intensity < 0):
            raise DataError("carbon intensity must be non-negative")
    return kwh * intensity


def equivalent_miles_driven(grams_co2e: ArrayLike) -> ArrayLike:
    """Equivalent passenger-vehicle miles for the given emissions."""
    grams = np.asarray(grams_co2e, dtype=float)
    if np.any(grams < 0):
        raise DataError("grams_co2e must be non-negative")
    return grams / GRAMS_CO2_PER_MILE
