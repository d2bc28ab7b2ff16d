"""A bundled ISO-New-England-like grid facade.

Most experiments need the fuel mix, carbon intensity and price series
together and aligned on the same hourly grid.  :class:`IsoNeLikeGrid`
generates all three once per calendar horizon and exposes hourly and monthly
views, which keeps the figure builders, schedulers and purchasing benchmarks
from each re-deriving (and re-seeding) the grid state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import DataError
from ..rng import SeedLike
from ..timeutils import SimulationCalendar
from .carbon_intensity import CarbonIntensityModel
from .fuel_mix import FuelMixConfig, FuelMixModel, GenerationMix
from .pricing import LmpPriceConfig, LmpPriceModel

__all__ = ["GridMonthlySummary", "IsoNeLikeGrid"]


@dataclass(frozen=True)
class GridMonthlySummary:
    """Monthly aggregates of the grid state over the simulation horizon."""

    month_labels: tuple[str, ...]
    month_of_year: np.ndarray
    renewable_share_pct: np.ndarray
    carbon_intensity_g_per_kwh: np.ndarray
    price_per_mwh: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.month_labels)
        for name in ("month_of_year", "renewable_share_pct", "carbon_intensity_g_per_kwh", "price_per_mwh"):
            if getattr(self, name).shape != (n,):
                raise DataError(f"{name} must have length {n}")


class IsoNeLikeGrid:
    """Aligned hourly fuel-mix, carbon-intensity and price series for a horizon.

    Each hourly series is generated on first read and cached on this object,
    so per process: a forked fleet worker that reads a series the parent has
    not read yet generates its own copy (milliseconds for a 24-month
    horizon), from the same unread seeded stream, so the values are equal.

    Parameters
    ----------
    calendar:
        The simulation horizon.
    fuel_config / price_config:
        Optional model parameter overrides.
    seed:
        Master seed; fuel-mix weather and price noise use derived streams.
    """

    def __init__(
        self,
        calendar: SimulationCalendar,
        *,
        fuel_config: FuelMixConfig | None = None,
        price_config: LmpPriceConfig | None = None,
        seed: SeedLike = None,
    ) -> None:
        self.calendar = calendar
        self.fuel_model = FuelMixModel(fuel_config, seed=seed)
        self.price_model = LmpPriceModel(price_config, seed=seed)
        self.carbon_model = CarbonIntensityModel()

    # ------------------------------------------------------------------
    # Hourly series (lazily generated, then cached)
    # ------------------------------------------------------------------
    @cached_property
    def mix(self) -> GenerationMix:
        """The hourly generation mix for the horizon."""
        return self.fuel_model.generate(self.calendar)

    @cached_property
    def hours(self) -> np.ndarray:
        """Simulated hours of every row of the hourly series."""
        return self.mix.hours

    @cached_property
    def renewable_share(self) -> np.ndarray:
        """Hourly solar+wind share of generation (fraction in [0, 1])."""
        return self.mix.renewable_share()

    @cached_property
    def carbon_intensity_g_per_kwh(self) -> np.ndarray:
        """Hourly grid carbon intensity."""
        return self.carbon_model.intensity_series(self.mix)

    @cached_property
    def price_per_mwh(self) -> np.ndarray:
        """Hourly real-time LMP."""
        return self.price_model.price_series(self.calendar, self.mix)

    # ------------------------------------------------------------------
    # Monthly views
    # ------------------------------------------------------------------
    @cached_property
    def monthly(self) -> GridMonthlySummary:
        """Monthly aggregates (renewable %, carbon intensity, price)."""
        cal = self.calendar
        return GridMonthlySummary(
            month_labels=tuple(cal.labels()),
            month_of_year=cal.month_of_year_array(),
            renewable_share_pct=self.fuel_model.monthly_renewable_share(cal, self.mix),
            carbon_intensity_g_per_kwh=self.carbon_model.monthly_intensity(cal, self.mix),
            price_per_mwh=self.price_model.monthly_average_price(cal, self.mix, self.price_per_mwh),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IsoNeLikeGrid(n_months={self.calendar.n_months})"
