"""Feature construction for time-series forecasting.

The wind forecaster is a linear model over hand-built features: lagged
values of the target plus optional exogenous series (weather forecasts).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ForecastError

__all__ = ["make_lag_matrix"]


def make_lag_matrix(
    series: np.ndarray,
    lags: Sequence[int],
    *,
    horizon: int = 1,
    exogenous: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Build a (features, targets) pair for ``horizon``-step-ahead forecasting.

    Row ``t`` of the feature matrix contains ``series[t - lag]`` for each lag,
    plus (optionally) the exogenous values at the *target* time ``t + horizon - 1``
    (exogenous regressors are assumed to be forecastable, e.g. weather
    forecasts, as in the DeepMind wind setup).  The target is
    ``series[t + horizon - 1]``.

    Returns arrays of shape (n_samples, n_features) and (n_samples,).
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ForecastError("series must be 1-D")
    if horizon < 1:
        raise ForecastError(f"horizon must be >= 1, got {horizon}")
    lags = list(lags)
    if not lags or any(lag < 1 for lag in lags):
        raise ForecastError("lags must be a non-empty sequence of positive integers")
    max_lag = max(lags)
    n = y.shape[0]
    if exogenous is not None:
        exo = np.asarray(exogenous, dtype=float)
        if exo.ndim == 1:
            exo = exo[:, None]
        if exo.shape[0] != n:
            raise ForecastError("exogenous series must align with the target series")
    else:
        exo = None

    first_t = max_lag  # first index whose lags all exist
    last_t = n - horizon  # exclusive bound so that t + horizon - 1 <= n - 1
    if last_t <= first_t:
        raise ForecastError(
            f"series too short ({n}) for max lag {max_lag} and horizon {horizon}"
        )
    rows = np.arange(first_t, last_t)
    features = np.column_stack([y[rows - lag] for lag in lags])
    if exo is not None:
        features = np.column_stack([features, exo[rows + horizon - 1]])
    targets = y[rows + horizon - 1]
    return features, targets
