"""Wind-farm simulation and 36-hour-ahead power forecasting (CLAIM-WIND).

Section IV.C of the paper cites DeepMind's work forecasting wind-farm output
36 hours ahead from weather forecasts and historical turbine data, enabling
day-ahead delivery commitments.  The reproduction:

* :class:`WindFarmSimulator` — synthesizes hourly wind speed (Weibull-ish,
  autocorrelated, seasonal) and converts it to farm power through a standard
  turbine power curve (cut-in / rated / cut-out).
* :class:`WindPowerForecaster` — a ridge model over lagged power and an
  (imperfect) weather forecast of future wind speed, issuing direct 36 h
  forecasts, scored by its skill against persistence
  (``1 - MAE / MAE_persistence``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import require_fraction, require_non_negative, require_positive
from ..errors import ConfigurationError, ForecastError
from ..rng import SeedLike, make_rng
from .evaluation import ForecastMetrics, evaluate_forecast
from .features import make_lag_matrix
from .linear import PersistenceForecaster, RidgeRegressor

__all__ = ["WindFarmConfig", "WindFarmSimulator", "WindPowerForecaster", "WindForecastStudy"]


@dataclass(frozen=True)
class WindFarmConfig:
    """Physical parameters of the synthetic wind farm.

    Attributes
    ----------
    capacity_mw:
        Nameplate capacity.
    mean_wind_speed_ms:
        Long-run mean hub-height wind speed.
    wind_speed_std_ms:
        Standard deviation of the (autocorrelated) wind-speed process.
    autocorrelation:
        Hour-to-hour autocorrelation of wind speed.
    seasonal_amplitude:
        Relative seasonal modulation of mean wind speed (winter-peaking).
    cut_in_ms / rated_ms / cut_out_ms:
        Turbine power-curve breakpoints.
    """

    capacity_mw: float = 100.0
    mean_wind_speed_ms: float = 7.5
    wind_speed_std_ms: float = 2.6
    autocorrelation: float = 0.97
    seasonal_amplitude: float = 0.18
    cut_in_ms: float = 3.0
    rated_ms: float = 12.0
    cut_out_ms: float = 25.0

    def __post_init__(self) -> None:
        require_positive(self.capacity_mw, "capacity_mw")
        require_positive(self.mean_wind_speed_ms, "mean_wind_speed_ms")
        require_non_negative(self.wind_speed_std_ms, "wind_speed_std_ms")
        require_fraction(self.autocorrelation, "autocorrelation")
        require_fraction(self.seasonal_amplitude, "seasonal_amplitude")
        if not 0 < self.cut_in_ms < self.rated_ms < self.cut_out_ms:
            raise ConfigurationError("require 0 < cut_in < rated < cut_out wind speeds")


class WindFarmSimulator:
    """Generates hourly wind-speed and farm-power series."""

    def __init__(self, config: WindFarmConfig | None = None, *, seed: SeedLike = None) -> None:
        self.config = config or WindFarmConfig()
        self._rng = make_rng(seed, "wind-farm")

    def wind_speed_series(self, n_hours: int) -> np.ndarray:
        """Hourly hub-height wind speed (m/s), AR(1) around a seasonal mean."""
        if n_hours <= 0:
            raise ForecastError("n_hours must be positive")
        cfg = self.config
        hours = np.arange(n_hours)
        day_of_year = (hours / 24.0) % 365.0
        seasonal_mean = cfg.mean_wind_speed_ms * (
            1.0 + cfg.seasonal_amplitude * np.cos(2.0 * np.pi * (day_of_year - 30.0) / 365.0)
        )
        rho = cfg.autocorrelation
        innovation_std = cfg.wind_speed_std_ms * np.sqrt(max(1.0 - rho**2, 1e-12))
        noise = np.empty(n_hours)
        noise[0] = self._rng.normal(0.0, cfg.wind_speed_std_ms)
        innovations = self._rng.normal(0.0, innovation_std, size=n_hours)
        for i in range(1, n_hours):
            noise[i] = rho * noise[i - 1] + innovations[i]
        return np.clip(seasonal_mean + noise, 0.0, None)

    def power_curve(self, wind_speed_ms: np.ndarray) -> np.ndarray:
        """Farm power (MW) from wind speed through the turbine power curve."""
        cfg = self.config
        v = np.asarray(wind_speed_ms, dtype=float)
        if np.any(v < 0):
            raise ForecastError("wind speed must be non-negative")
        # Cubic ramp between cut-in and rated, flat at capacity, zero beyond cut-out.
        ramp = ((v - cfg.cut_in_ms) / (cfg.rated_ms - cfg.cut_in_ms)) ** 3
        power = np.where(
            v < cfg.cut_in_ms,
            0.0,
            np.where(v < cfg.rated_ms, cfg.capacity_mw * np.clip(ramp, 0.0, 1.0), cfg.capacity_mw),
        )
        power = np.where(v >= cfg.cut_out_ms, 0.0, power)
        return power

    def generate(self, n_hours: int) -> tuple[np.ndarray, np.ndarray]:
        """(wind speed, farm power) series for ``n_hours`` hours."""
        speed = self.wind_speed_series(n_hours)
        return speed, self.power_curve(speed)

    def noisy_weather_forecast(self, wind_speed_ms: np.ndarray, *, error_std_ms: float = 1.2) -> np.ndarray:
        """An imperfect numerical-weather-prediction forecast of wind speed.

        DeepMind's system consumed weather forecasts, not actual future winds;
        adding realistic forecast error keeps the exercise honest.
        """
        speed = np.asarray(wind_speed_ms, dtype=float)
        if error_std_ms < 0:
            raise ForecastError("error_std_ms must be non-negative")
        return np.clip(speed + self._rng.normal(0.0, error_std_ms, size=speed.shape), 0.0, None)


class WindPowerForecaster:
    """Direct 36 h-ahead wind-power forecaster (ridge over lags + weather forecast)."""

    def __init__(self, horizon_h: int = 36, *, lags: tuple[int, ...] = (1, 2, 3, 6, 12, 24), alpha: float = 1e-2) -> None:
        if horizon_h < 1:
            raise ForecastError("horizon_h must be >= 1")
        self.horizon_h = int(horizon_h)
        self.lags = tuple(lags)
        self.model = RidgeRegressor(alpha=alpha)

    def fit(self, power_mw: np.ndarray, weather_forecast_ms: np.ndarray) -> "WindPowerForecaster":
        """Fit on historical power and the weather forecast valid at the target hour."""
        X, y = make_lag_matrix(
            np.asarray(power_mw, dtype=float),
            self.lags,
            horizon=self.horizon_h,
            exogenous=np.asarray(weather_forecast_ms, dtype=float),
        )
        self.model.fit(X, y)
        return self

    def predict_series(self, power_mw: np.ndarray, weather_forecast_ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Forecasts and aligned truth over a series (same construction as fit)."""
        X, y = make_lag_matrix(
            np.asarray(power_mw, dtype=float),
            self.lags,
            horizon=self.horizon_h,
            exogenous=np.asarray(weather_forecast_ms, dtype=float),
        )
        return self.model.predict(X), y


@dataclass(frozen=True)
class WindForecastStudy:
    """Results of the wind-forecasting study (CLAIM-WIND benchmark payload)."""

    horizon_h: int
    model_metrics: ForecastMetrics
    persistence_metrics: ForecastMetrics
    skill_vs_persistence: float
    capacity_mw: float

    @staticmethod
    def run(
        *,
        n_hours: int = 8760,
        horizon_h: int = 36,
        train_fraction: float = 0.7,
        seed: SeedLike = None,
        config: WindFarmConfig | None = None,
    ) -> "WindForecastStudy":
        """Generate a year of wind data, train the forecaster, and score it."""
        if not 0.0 < train_fraction < 1.0:
            raise ForecastError("train_fraction must lie in (0, 1)")
        farm = WindFarmSimulator(config, seed=seed)
        speed, power = farm.generate(n_hours)
        # The exogenous regressor mirrors what an operational system feeds the
        # model: the numerical weather forecast of wind speed pushed through
        # the turbine power curve (a "physical" power forecast), which the
        # statistical model then corrects using recent production history.
        weather_forecast = farm.power_curve(farm.noisy_weather_forecast(speed))

        split = int(n_hours * train_fraction)
        forecaster = WindPowerForecaster(horizon_h=horizon_h)
        forecaster.fit(power[:split], weather_forecast[:split])

        predictions, truth = forecaster.predict_series(power[split:], weather_forecast[split:])
        persistence = PersistenceForecaster(horizon=horizon_h)
        base_pred, base_truth = persistence.backtest(power[split:], test_fraction=0.999)
        # Align lengths: use the shorter of the two evaluation windows.
        n_eval = min(predictions.shape[0], base_pred.shape[0])
        model_metrics = evaluate_forecast(predictions[-n_eval:], truth[-n_eval:])
        persistence_metrics = evaluate_forecast(base_pred[-n_eval:], base_truth[-n_eval:])
        skill = 1.0 - model_metrics.mae / persistence_metrics.mae
        cfg = config or WindFarmConfig()
        return WindForecastStudy(
            horizon_h=horizon_h,
            model_metrics=model_metrics,
            persistence_metrics=persistence_metrics,
            skill_vs_persistence=float(skill),
            capacity_mw=cfg.capacity_mw,
        )
