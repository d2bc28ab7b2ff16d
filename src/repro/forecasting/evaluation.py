"""Forecast evaluation metrics.

Provides the standard point-forecast metrics (MAE, RMSE, MAPE, bias).  The
CLAIM-WIND study scores its forecast against persistence with them ("the
learned 36 h forecast is X% better than persistence"), mirroring how
operational forecast quality is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ForecastError

__all__ = ["ForecastMetrics", "evaluate_forecast"]


@dataclass(frozen=True)
class ForecastMetrics:
    """Point-forecast error metrics."""

    mae: float
    rmse: float
    mape_pct: float
    bias: float
    n_samples: int


def _validate(predictions: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(predictions, dtype=float)
    true = np.asarray(truth, dtype=float)
    if pred.shape != true.shape:
        raise ForecastError(
            f"predictions and truth must have the same shape, got {pred.shape} vs {true.shape}"
        )
    if pred.ndim != 1 or pred.size == 0:
        raise ForecastError("predictions and truth must be non-empty 1-D arrays")
    if np.any(~np.isfinite(pred)) or np.any(~np.isfinite(true)):
        raise ForecastError("predictions and truth must be finite")
    return pred, true


def evaluate_forecast(predictions: np.ndarray, truth: np.ndarray) -> ForecastMetrics:
    """Compute MAE/RMSE/MAPE/bias for a forecast against the realised values.

    MAPE ignores (masks out) hours where the truth is exactly zero, which is
    common in wind-power series during calm periods.
    """
    pred, true = _validate(predictions, truth)
    errors = pred - true
    mae = float(np.mean(np.abs(errors)))
    rmse = float(np.sqrt(np.mean(errors**2)))
    nonzero = np.abs(true) > 1e-12
    if np.any(nonzero):
        mape = float(np.mean(np.abs(errors[nonzero] / true[nonzero])) * 100.0)
    else:
        mape = float("nan")
    bias = float(np.mean(errors))
    return ForecastMetrics(mae=mae, rmse=rmse, mape_pct=mape, bias=bias, n_samples=pred.size)
