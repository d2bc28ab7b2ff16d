"""Hourly fuel-mix model for a New-England-like grid.

Figure 2 of the paper plots the monthly share of supplied energy generated
from solar and wind (roughly 4.5%-8.5% over 2020-21) against the facility's
power draw, and observes that the greenest months are February-May while the
facility's consumption peaks in June-August.  This module generates an hourly
generation mix with exactly those seasonal properties:

* **Solar** follows a diurnal bell scaled by day length and a seasonal
  irradiance factor; its share peaks in spring when demand is moderate.
* **Wind** is strongest in winter and early spring, weakest in mid-summer.
* **Hydro, nuclear** are roughly constant baseload.
* **Natural gas** and the residual "other" category absorb whatever demand
  remains, which is why hot, high-demand months dilute the renewable share.

The model is intentionally phenomenological: the reproduction needs the
seasonal shape and relative magnitudes, not a dispatch simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import require_fraction, require_positive
from ..errors import ConfigurationError, DataError
from ..rng import SeedLike, make_rng
from ..timeutils import SimulationCalendar

__all__ = ["FUEL_TYPES", "FuelMixConfig", "GenerationMix", "FuelMixModel"]

#: Order of fuels in all arrays produced by this module.
FUEL_TYPES: tuple[str, ...] = ("solar", "wind", "hydro", "nuclear", "natural_gas", "other")


@dataclass(frozen=True)
class FuelMixConfig:
    """Parameters of the synthetic fuel-mix model.

    The defaults are tuned so that the *monthly* solar+wind share traces the
    4.5%-8.5% band shown in Fig. 2/3, peaking in Feb-May and bottoming out in
    July-August.

    Attributes
    ----------
    solar_peak_share:
        Midday solar share of generation on a clear spring day.
    solar_seasonal_amplitude:
        Relative seasonal modulation of solar output (0 = none).
    wind_mean_share:
        Mean wind share of generation.
    wind_seasonal_amplitude:
        Relative seasonal modulation of wind (peaks in winter/early spring).
    hydro_share / nuclear_share:
        Approximately constant baseload shares.
    weather_noise_std:
        Standard deviation of the day-to-day lognormal weather multiplier
        applied to solar and wind.
    demand_peak_month:
        Month (1-12) when total grid demand peaks (July for ISO-NE); higher
        demand dilutes the renewable share.
    demand_seasonal_amplitude:
        Relative seasonal swing in total grid demand.
    winter_demand_bump:
        Secondary demand bump centred on mid-January (electric heating and
        the New England winter peak), which keeps deep winter from looking
        artificially cheap/green relative to spring.
    """

    solar_peak_share: float = 0.095
    solar_seasonal_amplitude: float = 0.45
    wind_mean_share: float = 0.042
    wind_seasonal_amplitude: float = 0.40
    hydro_share: float = 0.07
    nuclear_share: float = 0.26
    weather_noise_std: float = 0.18
    demand_peak_month: int = 7
    demand_seasonal_amplitude: float = 0.16
    winter_demand_bump: float = 0.08

    def __post_init__(self) -> None:
        require_fraction(self.solar_peak_share, "solar_peak_share")
        require_fraction(self.wind_mean_share, "wind_mean_share")
        require_fraction(self.hydro_share, "hydro_share")
        require_fraction(self.nuclear_share, "nuclear_share")
        require_fraction(self.solar_seasonal_amplitude, "solar_seasonal_amplitude")
        require_fraction(self.wind_seasonal_amplitude, "wind_seasonal_amplitude")
        require_fraction(self.demand_seasonal_amplitude, "demand_seasonal_amplitude")
        require_fraction(self.winter_demand_bump, "winter_demand_bump")
        if self.weather_noise_std < 0:
            raise ConfigurationError("weather_noise_std must be non-negative")
        if not 1 <= self.demand_peak_month <= 12:
            raise ConfigurationError("demand_peak_month must be in 1..12")
        if self.hydro_share + self.nuclear_share >= 0.8:
            raise ConfigurationError("baseload shares leave no room for other fuels")


@dataclass(frozen=True)
class GenerationMix:
    """Hourly generation shares by fuel plus total demand.

    Attributes
    ----------
    hours:
        Simulated hour of each row.
    shares:
        Array of shape (n_hours, len(FUEL_TYPES)); rows sum to 1.
    demand_mw:
        Total grid demand in MW for each hour (relative scale).
    """

    hours: np.ndarray
    shares: np.ndarray
    demand_mw: np.ndarray

    def __post_init__(self) -> None:
        if self.shares.shape != (self.hours.shape[0], len(FUEL_TYPES)):
            raise DataError("shares must have shape (n_hours, n_fuels)")
        if self.demand_mw.shape != self.hours.shape:
            raise DataError("demand_mw must have the same length as hours")
        sums = self.shares.sum(axis=1)
        if self.shares.size and not np.allclose(sums, 1.0, atol=1e-6):
            raise DataError("generation shares must sum to 1 in every hour")

    def share_of(self, fuel: str) -> np.ndarray:
        """Hourly share of a single fuel."""
        try:
            index = FUEL_TYPES.index(fuel)
        except ValueError as exc:
            raise DataError(f"unknown fuel {fuel!r}; known fuels: {FUEL_TYPES}") from exc
        return self.shares[:, index]

    def renewable_share(self) -> np.ndarray:
        """Hourly solar + wind share (the quantity plotted in Figs. 2-3)."""
        return self.share_of("solar") + self.share_of("wind")


class FuelMixModel:
    """Generates hourly fuel-mix series for a simulation horizon."""

    def __init__(self, config: FuelMixConfig | None = None, *, seed: SeedLike = None) -> None:
        self.config = config or FuelMixConfig()
        self._rng = make_rng(seed, "fuel-mix")

    # ------------------------------------------------------------------
    # Seasonal building blocks (pure functions of time, no noise)
    # ------------------------------------------------------------------
    def solar_capacity_factor(self, day_of_year: np.ndarray, hour_of_day: np.ndarray) -> np.ndarray:
        """Deterministic solar output factor in [0, 1] for given times.

        Combines a seasonal irradiance term (peaking near the summer
        solstice, day ~172) with a daylight bell centred on solar noon whose
        width follows day length.
        """
        doy = np.asarray(day_of_year, dtype=float)
        hod = np.asarray(hour_of_day, dtype=float)
        seasonal = 1.0 + self.config.solar_seasonal_amplitude * np.cos(
            2.0 * np.pi * (doy - 172.0) / 365.0
        )
        # Day length varies between ~9 h (winter) and ~15 h (summer) at 42 N.
        half_width = 4.5 + 1.5 * np.cos(2.0 * np.pi * (doy - 172.0) / 365.0)
        distance = np.abs(hod - 12.5)
        in_day = distance < half_width
        bell = np.where(in_day, np.cos(0.5 * np.pi * distance / half_width) ** 2, 0.0)
        return np.clip(seasonal, 0.0, None) * bell

    def wind_capacity_factor(self, day_of_year: np.ndarray) -> np.ndarray:
        """Deterministic wind output factor, peaking in late winter / early spring."""
        doy = np.asarray(day_of_year, dtype=float)
        # Peak around day 75 (mid March), trough in late summer.
        return 1.0 + self.config.wind_seasonal_amplitude * np.cos(
            2.0 * np.pi * (doy - 75.0) / 365.0
        )

    def demand_factor(self, day_of_year: np.ndarray, hour_of_day: np.ndarray) -> np.ndarray:
        """Relative total grid demand (1.0 = annual mean).

        Summer afternoons are the system peak; there is also a mild diurnal
        cycle with higher demand during waking hours.
        """
        doy = np.asarray(day_of_year, dtype=float)
        hod = np.asarray(hour_of_day, dtype=float)
        peak_doy = (self.config.demand_peak_month - 0.5) * 30.4
        seasonal = 1.0 + self.config.demand_seasonal_amplitude * np.cos(
            2.0 * np.pi * (doy - peak_doy) / 365.0
        )
        # Secondary winter (heating) peak centred on mid January, fading over ~6 weeks.
        winter_distance = np.minimum(np.abs(doy - 15.0), 365.0 - np.abs(doy - 15.0))
        winter = self.config.winter_demand_bump * np.exp(-((winter_distance / 45.0) ** 2))
        diurnal = 1.0 + 0.08 * np.cos(2.0 * np.pi * (hod - 15.0) / 24.0)
        return (seasonal + winter) * diurnal

    # ------------------------------------------------------------------
    # Series generation
    # ------------------------------------------------------------------
    def generate(self, calendar: SimulationCalendar, *, mean_demand_mw: float = 12_000.0) -> GenerationMix:
        """Generate an hourly :class:`GenerationMix` for the calendar horizon."""
        require_positive(mean_demand_mw, "mean_demand_mw")
        hours = calendar.hour_grid(1.0)
        day_of_year = calendar.day_of_year_array(hours)
        hour_of_day = hours % 24.0

        n = hours.shape[0]
        cfg = self.config

        # Weather multipliers change daily, not hourly.
        n_days = int(np.ceil(n / 24.0))
        solar_weather_daily = self._rng.lognormal(mean=0.0, sigma=cfg.weather_noise_std, size=n_days)
        wind_weather_daily = self._rng.lognormal(mean=0.0, sigma=cfg.weather_noise_std, size=n_days)
        day_index = (hours // 24.0).astype(int)
        day_index = np.clip(day_index - day_index[0], 0, n_days - 1)
        solar_weather = solar_weather_daily[day_index]
        wind_weather = wind_weather_daily[day_index]

        demand = self.demand_factor(day_of_year, hour_of_day)

        solar_raw = (
            cfg.solar_peak_share
            * self.solar_capacity_factor(day_of_year, hour_of_day)
            * solar_weather
        )
        wind_raw = cfg.wind_mean_share * self.wind_capacity_factor(day_of_year) * wind_weather

        # Renewable *generation* is weather-driven and independent of demand;
        # its *share* is diluted when demand is high.
        solar_share = np.clip(solar_raw / demand, 0.0, 0.6)
        wind_share = np.clip(wind_raw / demand, 0.0, 0.6)
        hydro_share = np.full(n, cfg.hydro_share) / demand
        nuclear_share = np.full(n, cfg.nuclear_share) / demand

        low_carbon = solar_share + wind_share + hydro_share + nuclear_share
        low_carbon = np.clip(low_carbon, 0.0, 0.95)
        residual = 1.0 - low_carbon
        # Natural gas is the marginal fuel in ISO-NE: it takes ~85% of the residual.
        gas_share = residual * 0.85
        other_share = residual - gas_share

        shares = np.stack(
            [solar_share, wind_share, hydro_share, nuclear_share, gas_share, other_share],
            axis=1,
        )
        shares = shares / shares.sum(axis=1, keepdims=True)
        demand_mw = mean_demand_mw * demand
        return GenerationMix(hours=hours, shares=shares, demand_mw=demand_mw)

    def monthly_renewable_share(
        self, calendar: SimulationCalendar, mix: GenerationMix | None = None
    ) -> np.ndarray:
        """Demand-weighted monthly solar+wind share (% of supplied energy).

        This is the exact quantity on the right axis of Figs. 2 and 3:
        the percentage of total supplied energy derived from solar and wind
        in each month.
        """
        if mix is None:
            mix = self.generate(calendar)
        renewable = mix.renewable_share()
        month_index = calendar.month_indices_for_hours(mix.hours)
        shares = np.empty(calendar.n_months, dtype=float)
        for i in range(calendar.n_months):
            mask = month_index == i
            if not np.any(mask):
                raise DataError(f"no hours found for month index {i}")
            weights = mix.demand_mw[mask]
            shares[i] = float(np.average(renewable[mask], weights=weights))
        return 100.0 * shares
