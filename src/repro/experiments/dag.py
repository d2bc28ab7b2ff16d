"""Campaign DAGs: staged, content-addressed, incrementally re-executed.

A :class:`CampaignDAG` expresses one campaign as a small rule graph over an
:class:`~repro.artifacts.ArtifactStore`, in the Snakemake shape of cached
stages keyed by their inputs:

* **run** — one node per :class:`~repro.experiments.campaign.CampaignPoint`,
  addressed by :func:`~repro.artifacts.keys.run_key` (scenario spec ×
  experiment × params × derived seed × code version).  Executed through
  :func:`~repro.experiments.campaign.run_campaign`'s store path, so hits
  skip the simulator entirely.
* **summarize** — per-dimension aggregate tables over the run rows; its key
  hashes the ordered *run keys*.
* **compare** — per-metric comparison grids across every swept dimension
  (policies, routers, sites, seeds, ...); keyed by the summarize key.
* **report** — the rendered figure battery (markdown + embedded-SVG HTML,
  stdlib only, see :mod:`repro.experiments.report`); keyed by the compare
  key and the formats.

Because each derived key hashes its upstream keys, editing one grid value
re-keys exactly one run node and the three derived nodes — a
re-materialization simulates that single point and re-renders, leaving
every other run artifact untouched.  An unchanged campaign materializes
with **zero** simulator executions.

>>> from repro.artifacts import ArtifactStore
>>> from repro.experiments import CampaignSpec
>>> from repro.experiments.dag import CampaignDAG
>>> import tempfile
>>> campaign = CampaignSpec(experiments=("table1",), scenario_grid={"seed": [0, 1]})
>>> dag = CampaignDAG(campaign, ArtifactStore(tempfile.mkdtemp()))
>>> [node.stage for node in dag.nodes()]
['run', 'run', 'summarize', 'compare', 'report']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from ..artifacts.keys import derived_key, run_key
from ..artifacts.store import ArtifactStore
from ..config import config_to_jsonable
from ..errors import ArtifactError
from ..obs.recorder import get_recorder
from ..parallel.pool import ParallelConfig
from .campaign import CampaignResult, CampaignSpec, run_campaign
from .report import render_html, render_markdown

__all__ = [
    "CampaignDAG",
    "DagNode",
    "DagOutcome",
    "summarize_payload",
    "compare_payload",
]

#: The report formats a DAG renders, in payload-key order.
REPORT_FORMATS = ("markdown", "html")


@dataclass(frozen=True)
class DagNode:
    """One addressable node of a campaign DAG."""

    stage: str
    key: str
    label: str
    upstream: tuple[str, ...] = ()


@dataclass(frozen=True)
class DagOutcome:
    """Everything a materialized campaign DAG produced.

    ``stage_status`` records, per stage, whether it was served from the
    store (``"cached"``) or recomputed (``"computed"``); the run stage
    reports its hit/simulated split.
    """

    result: CampaignResult
    summary: Mapping[str, Any]
    comparison: Mapping[str, Any]
    report_markdown: str
    report_html: str
    stage_status: Mapping[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON-ready status view (rows and reports stay separate)."""
        return {
            "n_points": len(self.result),
            "cache_hits": self.result.cache_hits,
            "cache_misses": self.result.cache_misses,
            "stage_status": dict(self.stage_status),
            "metrics": list(self.comparison.get("metrics", [])),
            "dimensions": list(self.comparison.get("dimensions", [])),
        }


def summarize_payload(result: CampaignResult) -> dict[str, Any]:
    """The summarize-stage artifact: rows plus per-dimension aggregates."""
    campaign = result.campaign
    dimensions = list(campaign.scenario_grid) + list(campaign.param_grid)
    return {
        "experiments": list(campaign.experiments),
        "dimensions": dimensions,
        "n_points": len(result),
        "rows": config_to_jsonable(result.rows),
        "overall": config_to_jsonable(result.summarize("experiment")),
        "by_dimension": {
            dimension: config_to_jsonable(result.summarize("experiment", dimension))
            for dimension in dimensions
        },
    }


def _metric_names(records: Sequence[Mapping[str, Any]]) -> list[str]:
    """Base metric names aggregated in summarize records, in first-seen order."""
    metrics: list[str] = []
    for record in records:
        for column in record:
            if column.endswith("_mean"):
                base = column[: -len("_mean")]
                if base not in metrics:
                    metrics.append(base)
    return metrics


def compare_payload(summary: Mapping[str, Any]) -> dict[str, Any]:
    """The compare-stage artifact: per-metric grids across every dimension.

    Derived purely from the summarize payload (never from live results), so
    the stage is re-runnable from the store alone.  ``experiment`` is
    always present as an implicit comparison dimension; each swept grid
    dimension adds a grid whose entries carry the experiment, the dimension
    value's label and the metric's mean/min/max over the matching points.
    """
    overall = list(summary.get("overall", []))
    by_dimension = dict(summary.get("by_dimension", {}))
    tables: dict[str, dict[str, list[dict[str, Any]]]] = {}
    metrics: list[str] = []

    def table_for(records: Sequence[Mapping[str, Any]], label_key: str) -> dict[str, list]:
        table: dict[str, list[dict[str, Any]]] = {}
        for metric in _metric_names(records):
            if metric not in metrics:
                metrics.append(metric)
            entries = []
            for record in records:
                if f"{metric}_mean" not in record:
                    continue
                entries.append(
                    {
                        "experiment": record.get("experiment"),
                        "label": record.get(label_key, record.get("experiment")),
                        "mean": record.get(f"{metric}_mean"),
                        "min": record.get(f"{metric}_min"),
                        "max": record.get(f"{metric}_max"),
                        "n_points": record.get("n_points"),
                    }
                )
            if entries:
                table[metric] = entries
        return table

    tables["experiment"] = table_for(overall, "experiment")
    for dimension, records in by_dimension.items():
        tables[dimension] = table_for(list(records), dimension)
    return {
        "experiments": list(summary.get("experiments", [])),
        "dimensions": ["experiment"] + list(by_dimension),
        "metrics": metrics,
        "n_points": summary.get("n_points", 0),
        "tables": tables,
    }


class CampaignDAG:
    """A campaign as a cached rule graph: run → summarize → compare → report.

    Parameters
    ----------
    campaign:
        The declarative campaign to stage.
    store:
        The content-addressed store every stage reads from and writes to.

    Every key carries :func:`~repro.artifacts.keys.code_version`, read when
    the DAG is built (the derived keys) and again when it materializes (the
    run keys), so ``GREENHPC_CODE_VERSION`` — the one override — must hold
    the same value for both.
    """

    def __init__(self, campaign: CampaignSpec, store: ArtifactStore) -> None:
        self.campaign = campaign
        self.store = store
        self.points = campaign.expand()
        self.run_keys = tuple(run_key(point) for point in self.points)
        self.summarize_key = derived_key("summarize", self.run_keys)
        self.compare_key = derived_key("compare", (self.summarize_key,))
        self.report_key = derived_key("report", (self.compare_key,), formats=list(REPORT_FORMATS))
        #: The derived stages in dependency order: (stage, key, upstream keys).
        self.stages: tuple[tuple[str, str, tuple[str, ...]], ...] = (
            ("summarize", self.summarize_key, self.run_keys),
            ("compare", self.compare_key, (self.summarize_key,)),
            ("report", self.report_key, (self.compare_key,)),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def nodes(self) -> list[DagNode]:
        """Every node of the graph, run nodes first, in dependency order."""
        nodes = [
            DagNode(stage="run", key=key, label=f"run[{point.index}]:{point.experiment}")
            for point, key in zip(self.points, self.run_keys)
        ]
        nodes.extend(
            DagNode(stage=stage, key=key, label=stage, upstream=upstream)
            for stage, key, upstream in self.stages
        )
        return nodes

    def keys(self) -> list[str]:
        """Every key the DAG addresses (the live set for :meth:`ArtifactStore.gc`)."""
        return [node.key for node in self.nodes()]

    def status(self) -> dict[str, dict[str, int]]:
        """Per-stage cached/total counts (by file presence, no payload reads)."""
        status: dict[str, dict[str, int]] = {}
        for node in self.nodes():
            entry = status.setdefault(node.stage, {"cached": 0, "total": 0})
            entry["total"] += 1
            if node.key in self.store:
                entry["cached"] += 1
        return status

    def gc(self) -> int:
        """Drop every artifact in the store that this DAG does not address."""
        return self.store.gc(self.keys())

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def _derive(
        self,
        stage: str,
        key: str,
        compute: Callable[[], Any],
        force: bool,
        required: Sequence[str] = (),
    ) -> tuple[Any, str]:
        """One derived stage: its payload and whether it was cached or computed.

        The payload is read from the store under ``key`` unless ``force``;
        a missing payload, or one lacking a ``required`` entry, is computed
        and persisted.  The status also lands on the ``dag.<stage>`` span.
        """
        with get_recorder().span(f"dag.{stage}") as span:
            payload = None if force else self.store.get(key)
            status = "cached"
            if payload is None or any(name not in payload for name in required):
                payload = compute()
                self.store.put(key, payload)
                status = "computed"
            span.set("status", status)
        return payload, status

    def materialize(
        self,
        *,
        parallel: Optional[ParallelConfig] = None,
        simulate: bool = True,
        force: bool = False,
    ) -> DagOutcome:
        """Bring every stage up to date and return the full outcome.

        Each stage first consults the store under its content key; only
        invalidated stages recompute (and persist).  ``simulate=False``
        forbids simulator executions: if any run artifact is missing the
        call raises :class:`~repro.errors.ArtifactError` naming the gap —
        this is what lets ``greenhpc report`` render from a warm store with
        a hard no-resimulation guarantee.  ``force=True`` recomputes every
        stage, overwriting cached artifacts.
        """
        if not simulate and not force:
            missing = [
                point.index
                for point, key in zip(self.points, self.run_keys)
                if self.store.get(key) is None
            ]
            if missing:
                raise ArtifactError(
                    f"{len(missing)} of {len(self.points)} run artifact(s) missing from "
                    f"the store at {self.store.root} (point indices {missing[:10]}"
                    f"{', ...' if len(missing) > 10 else ''}); run the sweep with "
                    f"--cache-dir first, or materialize with simulate=True"
                )
        elif not simulate and force:
            raise ArtifactError("cannot force-recompute a DAG with simulate=False")
        result = run_campaign(self.campaign, parallel, store=self.store, force=force)
        stage_status = {"run": f"{result.cache_hits} cached, {result.cache_misses} simulated"}
        summary, stage_status["summarize"] = self._derive(
            "summarize", self.summarize_key, lambda: summarize_payload(result), force
        )
        comparison, stage_status["compare"] = self._derive(
            "compare", self.compare_key, lambda: compare_payload(summary), force
        )
        title = self.campaign.base.name
        report, stage_status["report"] = self._derive(
            "report",
            self.report_key,
            lambda: {
                "markdown": render_markdown(comparison, title=title),
                "html": render_html(comparison, title=title),
            },
            force,
            required=REPORT_FORMATS,
        )
        return DagOutcome(
            result=result,
            summary=summary,
            comparison=comparison,
            report_markdown=report["markdown"],
            report_html=report["html"],
            stage_status=stage_status,
        )
