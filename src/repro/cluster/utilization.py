"""Utilization accounting.

Section IV.B of the paper stresses how poor GPU utilization (10-30% on cloud
GPU instances, 28% average on TPUs) silently inflates the energy footprint of
A.I. workloads, particularly inference.  This module provides the utilization
book-keeping used by the tracking layer and the life-cycle benchmark: a
tracker that accumulates busy/idle GPU-time from a stream of observations,
and summary statistics over job records or power traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import DataError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .resources import Cluster

__all__ = [
    "UtilizationTracker",
    "UtilizationSummary",
    "utilization_statistics",
    "cluster_utilization_statistics",
]


@dataclass(frozen=True)
class UtilizationSummary:
    """Summary statistics of a utilization series."""

    mean: float
    median: float
    p10: float
    p90: float
    fraction_below_30pct: float
    fraction_above_80pct: float


class UtilizationTracker:
    """Accumulates time-weighted utilization observations.

    Observations are (duration, utilization) pairs — e.g. "this GPU spent
    3600 s at 22% utilization".  The tracker reports the time-weighted mean
    and the busy/idle split used in energy attributions.
    """

    def __init__(self) -> None:
        self._total_time_s = 0.0
        self._weighted_utilization = 0.0
        self._busy_time_s = 0.0

    def observe(self, duration_s: float, utilization: float) -> None:
        """Record ``duration_s`` seconds spent at ``utilization`` (in [0, 1])."""
        if duration_s < 0:
            raise DataError(f"duration_s must be non-negative, got {duration_s!r}")
        if not 0.0 <= utilization <= 1.0:
            raise DataError(f"utilization must lie in [0, 1], got {utilization!r}")
        self._total_time_s += duration_s
        self._weighted_utilization += duration_s * utilization
        if utilization > 0:
            self._busy_time_s += duration_s

    @property
    def total_time_s(self) -> float:
        """Total observed time."""
        return self._total_time_s

    @property
    def busy_fraction(self) -> float:
        """Fraction of observed time with non-zero utilization."""
        if self._total_time_s == 0:
            return 0.0
        return self._busy_time_s / self._total_time_s

    @property
    def mean_utilization(self) -> float:
        """Time-weighted mean utilization (0 when nothing observed)."""
        if self._total_time_s == 0:
            return 0.0
        return self._weighted_utilization / self._total_time_s

    def merge(self, other: "UtilizationTracker") -> "UtilizationTracker":
        """Return a new tracker combining this one with ``other``."""
        merged = UtilizationTracker()
        merged._total_time_s = self._total_time_s + other._total_time_s
        merged._weighted_utilization = self._weighted_utilization + other._weighted_utilization
        merged._busy_time_s = self._busy_time_s + other._busy_time_s
        return merged


def utilization_statistics(utilizations: Sequence[float] | np.ndarray) -> UtilizationSummary:
    """Distributional summary of a collection of utilization observations.

    The ``fraction_below_30pct`` statistic is the headline number from the
    paper's inference discussion (AWS p3 instances at 10-30% utilization).
    """
    arr = np.asarray(list(utilizations), dtype=float)
    if arr.size == 0:
        raise DataError("utilization_statistics requires at least one observation")
    if np.any((arr < 0) | (arr > 1)):
        raise DataError("utilizations must lie in [0, 1]")
    return UtilizationSummary(
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        p10=float(np.percentile(arr, 10)),
        p90=float(np.percentile(arr, 90)),
        fraction_below_30pct=float(np.mean(arr < 0.30)),
        fraction_above_80pct=float(np.mean(arr > 0.80)),
    )


def cluster_utilization_statistics(cluster: "Cluster") -> UtilizationSummary:
    """Distributional summary of the busy GPUs' utilizations, straight from state.

    Reads the busy GPUs' utilizations through
    :meth:`~repro.cluster.resources.Cluster.busy_utilizations`.  Raises
    :class:`~repro.errors.DataError` when no GPU is busy (an idle cluster has
    no utilization distribution to summarise).
    """
    busy = cluster.busy_utilizations()
    if busy.size == 0:
        raise DataError("cluster_utilization_statistics requires at least one busy GPU")
    return utilization_statistics(busy)
