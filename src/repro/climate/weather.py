"""Site weather (outdoor temperature) model.

The cooling model and Fig. 4 need the outdoor dry-bulb temperature at the
facility's site on an hourly grid.  The model is the standard sinusoidal
decomposition used in building-energy work:

``T(t) = mean + seasonal_amplitude * cos(2*pi*(doy - peak_doy)/365)
        + diurnal_amplitude * cos(2*pi*(hod - peak_hod)/24)
        + AR(1) weather noise``

with Boston-area defaults (annual mean ~9.5 C, July mean ~23 C, January mean
~-3 C) matching the Fahrenheit range visible in the paper's Fig. 4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..config import SiteConfig, require_fraction, require_non_negative
from ..errors import ConfigurationError, DataError
from ..rng import SeedLike, make_rng
from ..timeutils import SimulationCalendar
from ..units import celsius_to_fahrenheit

__all__ = ["WeatherConfig", "WeatherModel"]


@dataclass(frozen=True)
class WeatherConfig:
    """Parameters of the hourly temperature model.

    Attributes
    ----------
    site:
        Site description providing the mean and amplitudes.
    peak_day_of_year:
        Day of year of the warmest day (late July for New England).
    peak_hour_of_day:
        Hour of day of the warmest hour (mid-afternoon).
    noise_std_c:
        Standard deviation of the stationary AR(1) weather noise.
    noise_autocorrelation:
        Hour-to-hour autocorrelation of the noise (weather persistence).
    """

    site: SiteConfig = SiteConfig()
    peak_day_of_year: float = 201.0
    peak_hour_of_day: float = 15.0
    noise_std_c: float = 3.2
    noise_autocorrelation: float = 0.96

    def __post_init__(self) -> None:
        if not 0 <= self.peak_day_of_year <= 366:
            raise ConfigurationError("peak_day_of_year must lie in [0, 366]")
        if not 0 <= self.peak_hour_of_day < 24:
            raise ConfigurationError("peak_hour_of_day must lie in [0, 24)")
        require_non_negative(self.noise_std_c, "noise_std_c")
        require_fraction(self.noise_autocorrelation, "noise_autocorrelation")


class WeatherModel:
    """Generates hourly outdoor temperature series for a simulation horizon."""

    def __init__(self, config: WeatherConfig | None = None, *, seed: SeedLike = None) -> None:
        self.config = config or WeatherConfig()
        self._rng = make_rng(seed, "weather")

    # ------------------------------------------------------------------
    # Deterministic components
    # ------------------------------------------------------------------
    def seasonal_component_c(self, day_of_year: np.ndarray) -> np.ndarray:
        """Seasonal temperature anomaly (relative to the annual mean)."""
        cfg = self.config
        doy = np.asarray(day_of_year, dtype=float)
        return cfg.site.seasonal_temperature_amplitude_c * np.cos(
            2.0 * np.pi * (doy - cfg.peak_day_of_year) / 365.0
        )

    def diurnal_component_c(self, hour_of_day: np.ndarray) -> np.ndarray:
        """Diurnal temperature anomaly (relative to the daily mean)."""
        cfg = self.config
        hod = np.asarray(hour_of_day, dtype=float)
        return cfg.site.diurnal_temperature_amplitude_c * np.cos(
            2.0 * np.pi * (hod - cfg.peak_hour_of_day) / 24.0
        )

    def expected_temperature_c(self, day_of_year: np.ndarray, hour_of_day: np.ndarray) -> np.ndarray:
        """Noise-free expected temperature for given times."""
        return (
            self.config.site.mean_annual_temperature_c
            + self.seasonal_component_c(day_of_year)
            + self.diurnal_component_c(hour_of_day)
        )

    # ------------------------------------------------------------------
    # Series generation
    # ------------------------------------------------------------------
    def hourly_temperature_c(self, calendar: SimulationCalendar) -> np.ndarray:
        """Hourly temperature (Celsius) over the calendar horizon."""
        hours = calendar.hour_grid(1.0)
        day_of_year = calendar.day_of_year_array(hours)
        hour_of_day = hours % 24.0
        expected = self.expected_temperature_c(day_of_year, hour_of_day)
        noise = self._ar1_noise(hours.shape[0])
        return expected + noise

    def _ar1_noise(self, n: int) -> np.ndarray:
        """Stationary AR(1) noise with the configured std and autocorrelation."""
        cfg = self.config
        if cfg.noise_std_c == 0 or n == 0:
            return np.zeros(n)
        rho = cfg.noise_autocorrelation
        innovation_std = cfg.noise_std_c * np.sqrt(max(1.0 - rho**2, 1e-12))
        innovations = self._rng.normal(0.0, innovation_std, size=n)
        first = float(self._rng.normal(0.0, cfg.noise_std_c))
        # The recurrence is sequential; stepping it on Python floats does the
        # same float operations as indexing the arrays, several times faster.
        steps = itertools.accumulate(
            innovations[1:].tolist(), lambda prev, innovation: rho * prev + innovation, initial=first
        )
        return np.fromiter(steps, dtype=float, count=n)

    def monthly_mean_temperature_c(
        self, calendar: SimulationCalendar, hourly_c: np.ndarray | None = None
    ) -> np.ndarray:
        """Monthly mean temperature in Celsius (the x-axis driver of Fig. 4)."""
        if hourly_c is None:
            hourly_c = self.hourly_temperature_c(calendar)
        hourly_c = np.asarray(hourly_c, dtype=float)
        if hourly_c.shape != (calendar.total_hours,):
            raise DataError(
                f"expected {calendar.total_hours} hourly temperatures, got {hourly_c.shape}"
            )
        return calendar.monthly_mean(hourly_c)

    def monthly_mean_temperature_f(
        self, calendar: SimulationCalendar, hourly_c: np.ndarray | None = None
    ) -> np.ndarray:
        """Monthly mean temperature in Fahrenheit, the unit used in Fig. 4."""
        return np.asarray(
            celsius_to_fahrenheit(self.monthly_mean_temperature_c(calendar, hourly_c))
        )
