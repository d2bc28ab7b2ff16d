"""Structured experiment reports.

The paper calls for "an active, systematic, and consistent approach towards
collecting and reporting data/information (on energy usage, training
settings, etc.)" and for facilities to provide the logging/instrumentation so
users do not have to.  This module is that reporting surface: an
:class:`ExperimentReport` couples the performance result a paper would
normally report with the energy/carbon measurements, and a
:class:`ReportCollection` renders a set of reports as CSV, JSON or a markdown
leaderboard sorted by an efficiency metric.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

from ..errors import TrackingError
from .tracker import TrackerReport

__all__ = ["ExperimentReport", "ReportCollection"]


@dataclass(frozen=True)
class ExperimentReport:
    """One experiment's joint performance / energy record.

    Attributes
    ----------
    name:
        Experiment name.
    task:
        Task or dataset identifier.
    performance_metric:
        Name of the headline performance metric (e.g. ``"top1_accuracy"``).
    performance_value:
        Value of the headline metric.
    energy_kwh:
        Total measured energy.
    emissions_kg:
        Total CO2e emissions.
    duration_h:
        Wall-clock duration in hours.
    gpu_hours:
        GPU-hours consumed.
    hardware:
        Hardware description (GPU model, node count).
    hyperparameters:
        Training settings needed for reproducibility (the reporting gap the
        paper highlights).
    """

    name: str
    task: str
    performance_metric: str
    performance_value: float
    energy_kwh: float
    emissions_kg: float
    duration_h: float
    gpu_hours: float
    hardware: str = ""
    hyperparameters: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.energy_kwh < 0 or self.emissions_kg < 0 or self.duration_h < 0 or self.gpu_hours < 0:
            raise TrackingError("energy, emissions, duration and gpu_hours must be non-negative")

    @classmethod
    def from_tracker(
        cls,
        tracker_report: TrackerReport,
        *,
        task: str,
        performance_metric: str,
        performance_value: float,
        gpu_hours: Optional[float] = None,
        hardware: str = "",
        hyperparameters: Mapping[str, Any] | None = None,
    ) -> "ExperimentReport":
        """Build a report from an :class:`~repro.tracking.tracker.TrackerReport`."""
        duration_h = tracker_report.duration_s / 3600.0
        return cls(
            name=tracker_report.label,
            task=task,
            performance_metric=performance_metric,
            performance_value=performance_value,
            energy_kwh=tracker_report.energy_kwh,
            emissions_kg=tracker_report.emissions_kg,
            duration_h=duration_h,
            gpu_hours=gpu_hours if gpu_hours is not None else duration_h * tracker_report.n_devices,
            hardware=hardware,
            hyperparameters=dict(hyperparameters or {}),
        )

    @property
    def performance_per_kwh(self) -> float:
        """Headline metric per kWh — the joint performance/efficiency number."""
        if self.energy_kwh == 0:
            return float("inf")
        return self.performance_value / self.energy_kwh

    def as_row(self) -> dict[str, Any]:
        """Flat row used by the collection renderers."""
        return {
            "name": self.name,
            "task": self.task,
            "metric": self.performance_metric,
            "value": self.performance_value,
            "energy_kwh": self.energy_kwh,
            "emissions_kg": self.emissions_kg,
            "duration_h": self.duration_h,
            "gpu_hours": self.gpu_hours,
            "performance_per_kwh": self.performance_per_kwh,
            "hardware": self.hardware,
        }


class ReportCollection:
    """A set of experiment reports with leaderboard-style renderers."""

    def __init__(self, reports: Iterable[ExperimentReport] = ()) -> None:
        self._reports: list[ExperimentReport] = list(reports)

    def add(self, report: ExperimentReport) -> None:
        """Add one report to the collection."""
        self._reports.append(report)

    def __len__(self) -> int:
        return len(self._reports)

    def __iter__(self):
        return iter(self._reports)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_energy_kwh(self) -> float:
        """Summed energy across all reports."""
        return sum(r.energy_kwh for r in self._reports)

    def total_emissions_kg(self) -> float:
        """Summed emissions across all reports."""
        return sum(r.emissions_kg for r in self._reports)

    def leaderboard(self, by: str = "performance_per_kwh", descending: bool = True) -> list[ExperimentReport]:
        """Reports sorted by an efficiency or performance column.

        ``by`` must be one of the keys of :meth:`ExperimentReport.as_row` that
        holds a number.
        """
        if not self._reports:
            return []
        sample = self._reports[0].as_row()
        if by not in sample:
            raise TrackingError(f"unknown leaderboard column {by!r}; available: {sorted(sample)}")
        if not isinstance(sample[by], (int, float)):
            raise TrackingError(f"leaderboard column {by!r} is not numeric")
        return sorted(self._reports, key=lambda r: r.as_row()[by], reverse=descending)

    # ------------------------------------------------------------------
    # Renderers
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        """Render the collection as CSV text."""
        if not self._reports:
            return ""
        rows = [r.as_row() for r in self._reports]
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        return buffer.getvalue()

    def to_json(self) -> str:
        """Render the collection as a JSON array."""
        return json.dumps([r.as_row() for r in self._reports], indent=2)

    def to_markdown(self, by: str = "performance_per_kwh") -> str:
        """Render a markdown leaderboard table sorted by ``by``."""
        ranked = self.leaderboard(by=by)
        if not ranked:
            return "(no experiments reported)"
        header = "| rank | name | task | {metric} | energy (kWh) | CO2e (kg) | {by} |".format(
            metric="metric value", by=by
        )
        separator = "|---" * 7 + "|"
        lines = [header, separator]
        for rank, report in enumerate(ranked, start=1):
            row = report.as_row()
            lines.append(
                f"| {rank} | {row['name']} | {row['task']} | {row['value']:.4g} "
                f"| {row['energy_kwh']:.3g} | {row['emissions_kg']:.3g} | {row[by]:.4g} |"
            )
        return "\n".join(lines)
