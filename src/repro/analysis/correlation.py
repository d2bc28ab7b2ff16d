"""Correlation and lag analysis.

The paper's empirical claims are all statements about the sign or monotonicity
of relationships between monthly series: power vs. renewable share (negative,
Fig. 2), price vs. renewable share (negative, Fig. 3), power vs. temperature
(monotone positive, Fig. 4), and energy vs. upcoming deadlines (positive with
a lead/lag structure, Fig. 5).  The helpers here compute those statistics so
benchmarks can verify the *shape* of each relationship rather than absolute
values.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError

__all__ = [
    "pearson_correlation",
    "spearman_correlation",
    "lagged_cross_correlation",
    "best_lag",
]


def _validate_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("inputs must be 1-D arrays of equal length")
    if a.size < 3:
        raise DataError("need at least three points to correlate")
    if np.any(~np.isfinite(a)) or np.any(~np.isfinite(b)):
        raise DataError("inputs must be finite")
    return a, b


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient between two series."""
    a, b = _validate_pair(x, y)
    if np.std(a) == 0 or np.std(b) == 0:
        raise DataError("cannot correlate a constant series")
    return float(np.corrcoef(a, b)[0, 1])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; tied values share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation (the monotonicity measure used for Fig. 4).

    The Pearson correlation of the average ranks; ``nan`` when either series
    is constant.
    """
    a, b = _validate_pair(x, y)
    ranks_a, ranks_b = _average_ranks(a), _average_ranks(b)
    if np.std(ranks_a) == 0 or np.std(ranks_b) == 0:
        return float("nan")
    return float(np.corrcoef(ranks_a, ranks_b)[0, 1])


def lagged_cross_correlation(x: np.ndarray, y: np.ndarray, max_lag: int = 6) -> dict[int, float]:
    """Pearson correlation of ``x[t]`` with ``y[t + lag]`` for lags in [-max_lag, max_lag].

    Positive lags mean ``x`` *leads* ``y``: e.g. deadline counts lead energy
    when energy rises *before* the deadline month (lag -1 or -2 is where
    Fig. 5's anticipation effect shows up, since energy at month t correlates
    with deadlines at month t+1..t+2).
    """
    a, b = _validate_pair(x, y)
    if max_lag < 0 or max_lag >= a.size - 2:
        raise DataError("max_lag must be non-negative and leave at least 3 overlapping points")
    out: dict[int, float] = {}
    for lag in range(-max_lag, max_lag + 1):
        if lag >= 0:
            xa, yb = a[: a.size - lag] if lag else a, b[lag:]
        else:
            xa, yb = a[-lag:], b[: b.size + lag]
        if xa.size < 3 or np.std(xa) == 0 or np.std(yb) == 0:
            out[lag] = float("nan")
        else:
            out[lag] = float(np.corrcoef(xa, yb)[0, 1])
    return out


def best_lag(x: np.ndarray, y: np.ndarray, max_lag: int = 6) -> tuple[int, float]:
    """The lag (and its correlation) at which |corr(x[t], y[t+lag])| is largest."""
    correlations = lagged_cross_correlation(x, y, max_lag)
    finite = {lag: c for lag, c in correlations.items() if np.isfinite(c)}
    if not finite:
        raise DataError("no finite lagged correlations")
    lag = max(finite, key=lambda k: abs(finite[k]))
    return lag, finite[lag]
