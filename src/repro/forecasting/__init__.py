"""Forecasting models supporting energy-aware decision making.

Section II.C of the paper argues that "models that help forecast and relate
energy prices, fuel mix, as well as energy expenditure to one another can
provide significant support" for purchasing and scheduling decisions, and
Section IV.C highlights DeepMind's 36-hour-ahead wind-power forecasts as a
concrete success.  This package implements the forecasting stack with
NumPy-only models:

* :mod:`~repro.forecasting.features` — lagged feature construction;
* :mod:`~repro.forecasting.linear` — ridge regression and the persistence
  baseline;
* :mod:`~repro.forecasting.wind` — a synthetic wind farm plus the 36 h-ahead
  forecasting task (CLAIM-WIND);
* :mod:`~repro.forecasting.evaluation` — MAE/RMSE/MAPE/bias metrics.
"""

from .features import make_lag_matrix
from .linear import RidgeRegressor, PersistenceForecaster
from .wind import WindFarmConfig, WindFarmSimulator, WindPowerForecaster
from .evaluation import ForecastMetrics, evaluate_forecast

__all__ = [
    "make_lag_matrix",
    "RidgeRegressor",
    "PersistenceForecaster",
    "WindFarmConfig",
    "WindFarmSimulator",
    "WindPowerForecaster",
    "ForecastMetrics",
    "evaluate_forecast",
]
