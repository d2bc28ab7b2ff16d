"""Scheduling & control: jobs, queues, composable policies and power caps.

The scheduler is the ``p`` lever of Eq. 1 and its power stages are part of
the ``c`` lever.  Policies are built from four independently pluggable
**stages**, composed by a :class:`PolicyPipeline`:

* **ordering** — the order pending jobs are considered in: submission order
  (``submit-order``), earliest-deadline-first (``edf``), shortest-job-first
  (``sjf``);
* **admission gates** — whether a fitting job may start *now*: carbon
  green-hour deferral (``carbon``), an electricity-price ceiling (``price``),
  a minimum renewable share (``renewable``), deadline-slack deferral
  (``slack``), the facility power budget (``budget``);
* **placement** — how the queue flows into free GPUs: strict head-of-line
  ``fifo`` or EASY-style ``backfill``, packed or spread;
* **power control** — a chain of cap transformers over each started job's own
  agreed cap: static caps (``cap``), dirty-hour caps (``dirty-cap``),
  per-job deadline-aware caps (``deadline-cap``) and tick-driven adaptive
  budget following (``adaptive``).

Any composition is addressable by a **spec string** in the
:mod:`~repro.scheduler.compose` grammar — ``token ('+' token)*`` with
``name(key=value, ...)`` parameters — e.g.
``"backfill+carbon(cap=0.7)+budget"`` or
``"edf+backfill+slack(margin=2.0)+cap(fraction=0.8)"``; see
:func:`~repro.scheduler.compose.parse_policy` /
:func:`~repro.scheduler.compose.build_pipeline`, and ``greenhpc policies``
for the generated catalogue.  :func:`~repro.core.levers.register_policy`
names canned compositions, among them the five named policies (``fifo``,
``backfill``, ``energy-aware``, ``carbon-aware``, ``deadline-aware``).

The package provides:

* :mod:`~repro.scheduler.job` — the :class:`Job` model (GPU count, duration,
  deadline, deferability, power-cap assignment) and its lifecycle states.
* :mod:`~repro.scheduler.queue` — FIFO job queues and the *segmented* queue
  structure from Section II.C (per-profile queues with stated preferences).
* :mod:`~repro.scheduler.base` — the :class:`SchedulingContext` handed to
  policies (grid state, weather, budget) and their :class:`ScheduleDecision`.
* :mod:`~repro.scheduler.stages` — the stage taxonomy listed above.
* :mod:`~repro.scheduler.pipeline` / :mod:`~repro.scheduler.compose` — the
  one scheduler (:class:`PolicyPipeline`) and the spec grammar / registry.
* :mod:`~repro.scheduler.powercap` — the GPU power-cap trade-off sweep (the
  mechanism shown effective by Frey et al. [15]).
"""

from .job import Job, JobState
from .queue import JobQueue, QueuePolicy, SegmentedQueueSystem
from .base import SchedulingContext, ScheduleDecision
from .powercap import powercap_energy_tradeoff
from .stages import (
    AdaptiveCapStage,
    AdmissionGate,
    DeadlineOrdering,
    DeadlineSlackCapStage,
    DeadlineSlackGate,
    DirtyHourCapStage,
    GreenHourGate,
    OrderingStage,
    Placement,
    PowerBudgetGate,
    PowerStage,
    PriceCeilingGate,
    RenewableShareGate,
    ShortestJobOrdering,
    StaticCapStage,
    SubmitOrdering,
)
from .pipeline import PolicyPipeline
from .compose import (
    PolicySpec,
    StageSpec,
    build_pipeline,
    parse_policy,
    register_stage,
    split_top_level,
    stage_names,
    list_stage_definitions,
)

__all__ = [
    "Job",
    "JobState",
    "JobQueue",
    "QueuePolicy",
    "SegmentedQueueSystem",
    "SchedulingContext",
    "ScheduleDecision",
    "powercap_energy_tradeoff",
    # Stage taxonomy
    "OrderingStage",
    "SubmitOrdering",
    "DeadlineOrdering",
    "ShortestJobOrdering",
    "Placement",
    "AdmissionGate",
    "GreenHourGate",
    "PriceCeilingGate",
    "RenewableShareGate",
    "DeadlineSlackGate",
    "PowerBudgetGate",
    "PowerStage",
    "StaticCapStage",
    "DirtyHourCapStage",
    "DeadlineSlackCapStage",
    "AdaptiveCapStage",
    # Pipeline + grammar
    "PolicyPipeline",
    "PolicySpec",
    "StageSpec",
    "parse_policy",
    "build_pipeline",
    "register_stage",
    "split_top_level",
    "stage_names",
    "list_stage_definitions",
]
