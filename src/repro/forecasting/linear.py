"""Linear forecasting models (NumPy only).

The forecasting needs of the paper's decision problems are modest: relate
energy prices, fuel mix, demand and weather to one another well enough to
schedule purchases and anticipate load.  Ridge regression over lagged
features and the persistence baseline every forecast must beat are
sufficient — and keep the package free of ML-framework dependencies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ForecastError

__all__ = ["RidgeRegressor", "PersistenceForecaster"]


class RidgeRegressor:
    """Ridge (L2-regularised least squares) regression.

    Solves ``min_w ||X w - y||^2 + alpha ||w||^2`` in closed form.  Features
    are standardised internally so that ``alpha`` is scale-free; the intercept
    is never penalised.
    """

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha < 0:
            raise ForecastError("alpha must be non-negative")
        self.alpha = float(alpha)
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self._mean: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self.coef_ is not None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegressor":
        """Fit the model to features ``X`` (n_samples, n_features) and targets ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ForecastError("X must be 2-D")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ForecastError("y must be 1-D and aligned with X")
        if X.shape[0] < 2:
            raise ForecastError("at least two samples are required to fit")
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        Xs = (X - self._mean) / self._scale
        y_mean = float(y.mean())
        yc = y - y_mean
        n_features = Xs.shape[1]
        gram = Xs.T @ Xs + self.alpha * np.eye(n_features)
        coef = np.linalg.solve(gram, Xs.T @ yc)
        self.coef_ = coef
        self.intercept_ = y_mean
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for new features."""
        if not self.is_fitted:
            raise ForecastError("predict() called before fit()")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.coef_.shape[0]:
            raise ForecastError("X has the wrong shape for this fitted model")
        Xs = (X - self._mean) / self._scale
        return Xs @ self.coef_ + self.intercept_


class PersistenceForecaster:
    """The persistence baseline: forecast = last observed value.

    This is the baseline DeepMind's wind forecasts are implicitly compared
    against; any learned forecaster must beat it to be worth deploying.
    """

    def __init__(self, horizon: int = 1) -> None:
        if horizon < 1:
            raise ForecastError("horizon must be >= 1")
        self.horizon = int(horizon)

    def backtest(self, series: np.ndarray, *, test_fraction: float = 0.25) -> tuple[np.ndarray, np.ndarray]:
        """Persistence forecasts over the tail of the series, returning (predictions, truth)."""
        series = np.asarray(series, dtype=float)
        n = series.shape[0]
        split = int(round(n * (1.0 - test_fraction)))
        if split < 1 or split >= n - self.horizon + 1:
            raise ForecastError("series too short for the requested backtest")
        predictions = []
        truth = []
        for t in range(split, n - self.horizon + 1):
            predictions.append(series[t - 1])
            truth.append(series[t + self.horizon - 1])
        return np.asarray(predictions), np.asarray(truth)
