"""Run profiles: the per-result digest of a traced run.

A :class:`RunProfile` compresses one run's spans (and optionally a metrics
snapshot) into the aggregate view a result object can carry without hauling
the raw trace around: per-span-name totals plus the headline wall time.
It is attached to :class:`~repro.experiments.ExperimentResult`,
:class:`~repro.fleet.result.FleetResult` and
:class:`~repro.experiments.campaign.CampaignResult` when tracing is enabled,
so "where did the time go" is answerable from the object an experiment
returns, not only from an exported trace file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

__all__ = ["RunProfile", "aggregate_spans"]


def aggregate_spans(spans: Sequence[Any]) -> list[dict[str, Any]]:
    """Per-name count/total/max over span records, largest total first.

    Accepts :class:`~repro.obs.recorder.SpanRecord` objects or the dict form
    exporters read back (anything with ``name``/``wall_s``).
    """
    stats: dict[str, dict[str, Any]] = {}
    for span in spans:
        name = span.name if hasattr(span, "name") else span["name"]
        wall = float(span.wall_s if hasattr(span, "wall_s") else span["wall_s"])
        entry = stats.get(name)
        if entry is None:
            entry = stats[name] = {"name": name, "count": 0, "total_s": 0.0, "max_s": 0.0}
        entry["count"] += 1
        entry["total_s"] += wall
        if wall > entry["max_s"]:
            entry["max_s"] = wall
    return sorted(stats.values(), key=lambda e: (-e["total_s"], e["name"]))


@dataclass(frozen=True)
class RunProfile:
    """Aggregate timing view of one traced run.

    Attributes
    ----------
    total_s:
        Wall time of the run's root span (or the spans' summed envelope when
        no single root covers them).
    n_spans:
        Number of spans aggregated.
    phases:
        Per-span-name aggregates (``name``/``count``/``total_s``/``max_s``),
        largest total first.
    metrics:
        Optional :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` taken at
        profile build time.
    """

    total_s: float
    n_spans: int
    phases: tuple[Mapping[str, Any], ...] = ()
    metrics: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_spans(
        cls,
        spans: Sequence[Any],
        *,
        total_s: Optional[float] = None,
        metrics: Optional[Mapping[str, Any]] = None,
    ) -> "RunProfile":
        """Build a profile over ``spans`` (see :func:`aggregate_spans`)."""
        phases = aggregate_spans(spans)
        if total_s is None:
            # Without an explicit root, top-level spans bound the run.
            roots = [
                s
                for s in spans
                if (s.parent_id if hasattr(s, "parent_id") else s.get("parent_id")) is None
            ]
            total_s = sum(
                float(s.wall_s if hasattr(s, "wall_s") else s["wall_s"]) for s in roots
            )
        return cls(
            total_s=float(total_s),
            n_spans=len(spans),
            phases=tuple(phases),
            metrics=dict(metrics or {}),
        )

    def phase(self, name: str) -> Optional[Mapping[str, Any]]:
        """The aggregate entry for one span name (``None`` when absent)."""
        for entry in self.phases:
            if entry["name"] == name:
                return entry
        return None

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON-ready dictionary form."""
        return {
            "total_s": self.total_s,
            "n_spans": self.n_spans,
            "phases": [dict(entry) for entry in self.phases],
            "metrics": dict(self.metrics),
        }
