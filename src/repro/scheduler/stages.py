"""The stage taxonomy of the composable policy pipeline.

A scheduling policy decomposes into four independently pluggable stages, each
answering one question per scheduling round:

* **ordering** — in what order are pending jobs considered?  A static sort
  key over fields fixed at job construction, so the simulator keeps its
  queue in this order as jobs arrive (:class:`SubmitOrdering`,
  :class:`DeadlineOrdering`, :class:`ShortestJobOrdering`)
* **admission gates** — may this job start *now*, given the environment?
  Each gate reads the round's signal once, in ``begin_round``
  (:class:`GreenHourGate`, :class:`PriceCeilingGate`,
  :class:`RenewableShareGate`, :class:`DeadlineSlackGate`,
  :class:`PowerBudgetGate`)
* **placement** — how does the queue flow into free capacity, and how are
  GPUs picked?  (:class:`Placement` — strict FIFO or backfill, packed or
  spread)
* **power control** — what power cap does a started job get?  A *chain* of
  :class:`PowerStage` transformers starting from the job's own agreed cap
  (:class:`StaticCapStage`, :class:`DirtyHourCapStage`,
  :class:`DeadlineSlackCapStage`, :class:`AdaptiveCapStage`)

:class:`~repro.scheduler.pipeline.PolicyPipeline` composes one ordering, any
number of gates, one placement and a power chain into a full scheduling
policy; the grammar in
:mod:`~repro.scheduler.compose` makes any such composition addressable by a
spec string.

The five named policies are compositions of the stages below; their job
records are pinned bit-for-bit against the pre-pipeline schedulers in
``tests/test_policy_compose.py`` and ``tests/test_cluster_state_parity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..cluster.observers import SimulatorObserver
from ..cluster.resources import Cluster
from ..errors import SchedulingError
from .base import SchedulingContext
from .job import Job
from .powercap import AdaptivePowerCapController

__all__ = [
    "estimate_job_it_power_w",
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
]


def estimate_job_it_power_w(job: Job, cluster: Cluster, cap_fraction: Optional[float]) -> float:
    """Rough per-job IT power estimate used for facility-budget checks.

    GPU power at the cap plus a share of node overhead proportional to the
    fraction of a node used.
    """
    spec = cluster.gpu_spec
    cap_w = None if cap_fraction is None else cap_fraction * spec.tdp_w
    gpu_power = cluster.gpu_power_model.power_w_scalar(job.utilization, cap_w)
    node_share = min(1.0, job.n_gpus / cluster.facility.gpus_per_node)
    return job.n_gpus * gpu_power + node_share * cluster.facility.node_active_overhead_w


# ---------------------------------------------------------------------------
# Ordering stages
# ---------------------------------------------------------------------------


class OrderingStage:
    """The order in which a round considers pending jobs, as a sort key.

    :meth:`key` reads only fields no code writes after a job is constructed
    and ends in the unique ``job_id``, so it is a total order that never
    changes while the job waits.  The simulator therefore keeps its pending
    queue sorted on it as jobs arrive instead of sorting every round.
    """

    name: str = "abstract-ordering"

    @staticmethod
    def key(job: Job) -> tuple:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SubmitOrdering(OrderingStage):
    """Submission order (ties broken by job id) — the FIFO/backfill default."""

    name = "submit-order"

    @staticmethod
    def key(job: Job) -> tuple:
        return (job.submit_time_h, job.job_id)


class DeadlineOrdering(OrderingStage):
    """Earliest-deadline-first; jobs without deadlines fill in behind."""

    name = "edf"

    @staticmethod
    def key(job: Job) -> tuple:
        deadline = job.deadline_h
        return (
            deadline if deadline is not None else float("inf"),
            job.submit_time_h,
            job.job_id,
        )


class ShortestJobOrdering(OrderingStage):
    """Shortest baseline duration first (SJF) — drains small work quickly."""

    name = "sjf"

    @staticmethod
    def key(job: Job) -> tuple:
        return (job.duration_h, job.submit_time_h, job.job_id)


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Placement:
    """How the ordered queue flows into free GPUs.

    Attributes
    ----------
    name:
        Token name ("fifo" or "backfill").
    stop_at_first_blocked:
        Strict FIFO semantics: a job that does not *fit* blocks everything
        behind it.  (Gate rejections never block — a deferred job must not
        starve the queue.)
    pack:
        Whether allocations pack onto few nodes (energy-aware) or spread
        across many (thermal-aware).
    """

    name: str
    stop_at_first_blocked: bool
    pack: bool = True


# ---------------------------------------------------------------------------
# Admission gates
# ---------------------------------------------------------------------------


class AdmissionGate:
    """Decides, per round, whether a fitting job may start right now.

    The pipeline calls :meth:`begin_round` once per scheduling round, then
    :meth:`admits` for each candidate (short-circuiting on first rejection)
    and :meth:`commit` once the job passed *every* gate and will start —
    stateful gates (e.g. the power budget) consume their resource there.

    A gate reads the round's signal from the context once, in
    :meth:`begin_round`, not once per job.  The job's power cap is resolved
    only for jobs that every gate with ``reads_cap`` false has admitted; those
    gates are asked first and get ``cap_fraction=None``.
    """

    name: str = "abstract-gate"
    #: Whether :meth:`admits` and :meth:`commit` read ``cap_fraction``.
    reads_cap: bool = False

    def begin_round(self, cluster: Cluster, context: SchedulingContext) -> None:
        """Read this round's signal and reset per-round state."""

    def admits(
        self,
        job: Job,
        cluster: Cluster,
        context: SchedulingContext,
        cap_fraction: Optional[float],
    ) -> bool:
        raise NotImplementedError

    def commit(
        self,
        job: Job,
        cluster: Cluster,
        context: SchedulingContext,
        cap_fraction: Optional[float],
    ) -> None:
        """The job passed every gate and is starting now."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class _DeferralGate(AdmissionGate):
    """Shared deferral contract of the signal-following gates.

    While the environment signal is *unfavourable*, deferrable jobs wait until
    their ``max_defer_h`` window expires; with ``defer_non_deferrable`` even
    unmarked jobs are held for up to ``grace_h`` hours.
    """

    def __init__(self, *, defer_non_deferrable: bool = False, grace_h: float = 6.0) -> None:
        self.defer_non_deferrable = bool(defer_non_deferrable)
        if grace_h < 0:
            raise SchedulingError(f"grace_h must be non-negative, got {grace_h!r}")
        self.grace_h = float(grace_h)
        self._favourable = True

    def _is_favourable(self, context: SchedulingContext) -> bool:
        """Whether the signal currently allows unrestricted starts."""
        raise NotImplementedError

    def begin_round(self, cluster: Cluster, context: SchedulingContext) -> None:
        self._favourable = self._is_favourable(context)

    def admits(
        self,
        job: Job,
        cluster: Cluster,
        context: SchedulingContext,
        cap_fraction: Optional[float],
    ) -> bool:
        if self._favourable:
            return True
        if job.deferrable:
            return context.now_h >= job.must_start_by() - 1e-9
        if self.defer_non_deferrable:
            return context.now_h >= job.submit_time_h + self.grace_h - 1e-9
        return True


class GreenHourGate(_DeferralGate):
    """Defer deferrable work while grid carbon intensity is above threshold.

    The temporal-shifting gate of Section II.A: an hour is green when the
    context's carbon intensity is at or below its pre-computed threshold
    (missing data counts as green — no information, no deferral).
    """

    name = "carbon"

    def _is_favourable(self, context: SchedulingContext) -> bool:
        return context.is_green_hour()


class PriceCeilingGate(_DeferralGate):
    """Defer deferrable work while electricity price exceeds a ceiling."""

    name = "price"

    def __init__(
        self,
        ceiling_per_mwh: float,
        *,
        defer_non_deferrable: bool = False,
        grace_h: float = 6.0,
    ) -> None:
        super().__init__(defer_non_deferrable=defer_non_deferrable, grace_h=grace_h)
        if ceiling_per_mwh <= 0:
            raise SchedulingError(f"ceiling_per_mwh must be positive, got {ceiling_per_mwh!r}")
        self.ceiling_per_mwh = float(ceiling_per_mwh)

    def _is_favourable(self, context: SchedulingContext) -> bool:
        return context.price_per_mwh is None or context.price_per_mwh <= self.ceiling_per_mwh


class RenewableShareGate(_DeferralGate):
    """Defer deferrable work while the grid's renewable share is low."""

    name = "renewable"

    def __init__(
        self,
        min_share: float = 0.3,
        *,
        defer_non_deferrable: bool = False,
        grace_h: float = 6.0,
    ) -> None:
        super().__init__(defer_non_deferrable=defer_non_deferrable, grace_h=grace_h)
        if not 0.0 <= min_share <= 1.0:
            raise SchedulingError(f"min_share must lie in [0, 1], got {min_share!r}")
        self.min_share = float(min_share)

    def _is_favourable(self, context: SchedulingContext) -> bool:
        return context.renewable_share is None or context.renewable_share >= self.min_share


class DeadlineSlackGate(AdmissionGate):
    """Use deadline slack (not just the deferability flag) to ride out dirty hours.

    The Section II.A x III combination of the deadline-aware policy: during
    dirty hours a deadline-carrying job waits until its latest feasible start
    (minus a safety margin); jobs without deadlines fall back to the explicit
    deferability contract.
    """

    name = "slack"

    def __init__(self, slack_margin_h: float = 2.0) -> None:
        if slack_margin_h < 0:
            raise SchedulingError(
                f"slack_margin_h must be non-negative, got {slack_margin_h!r}"
            )
        self.slack_margin_h = float(slack_margin_h)
        self._green = True

    def begin_round(self, cluster: Cluster, context: SchedulingContext) -> None:
        self._green = context.is_green_hour()

    def admits(
        self,
        job: Job,
        cluster: Cluster,
        context: SchedulingContext,
        cap_fraction: Optional[float],
    ) -> bool:
        if self._green:
            return True
        if job.deadline_h is None:
            if job.deferrable:
                return context.now_h >= job.must_start_by() - 1e-9
            return True
        latest_start = job.latest_start_for_deadline(slowdown_factor=1.0)
        if latest_start is None:
            return True
        return context.now_h >= latest_start - self.slack_margin_h - 1e-9


class PowerBudgetGate(AdmissionGate):
    """Stop starting work once the facility power budget would be exceeded.

    Converts the context's ``facility_power_budget_w`` into an IT budget at
    the current PUE and projects each candidate start's IT power on top of the
    running total; jobs that would overshoot are skipped this round.
    """

    name = "budget"
    reads_cap = True

    def __init__(self) -> None:
        self._it_budget_w: Optional[float] = None
        self._projected_it_power_w: float = 0.0

    def begin_round(self, cluster: Cluster, context: SchedulingContext) -> None:
        budget = context.facility_power_budget_w
        if budget is not None and context.current_pue > 0:
            self._it_budget_w = budget / context.current_pue
        else:
            self._it_budget_w = None
        self._projected_it_power_w = context.current_it_power_w

    def admits(
        self,
        job: Job,
        cluster: Cluster,
        context: SchedulingContext,
        cap_fraction: Optional[float],
    ) -> bool:
        if self._it_budget_w is None:
            return True
        added = estimate_job_it_power_w(job, cluster, cap_fraction)
        return self._projected_it_power_w + added <= self._it_budget_w

    def commit(
        self,
        job: Job,
        cluster: Cluster,
        context: SchedulingContext,
        cap_fraction: Optional[float],
    ) -> None:
        if self._it_budget_w is not None:
            self._projected_it_power_w += estimate_job_it_power_w(job, cluster, cap_fraction)


# ---------------------------------------------------------------------------
# Power stages
# ---------------------------------------------------------------------------


class PowerStage:
    """One transformer in the power-cap chain.

    The pipeline resolves a started job's cap by threading the job's own
    agreed cap (``job.power_cap_fraction``) through every power stage in spec
    order; each stage may tighten, set or pass through the running value.
    """

    name: str = "abstract-power"

    def apply(
        self,
        job: Job,
        base: Optional[float],
        cluster: Cluster,
        context: SchedulingContext,
    ) -> Optional[float]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class StaticCapStage(PowerStage):
    """A fixed cap fraction with queue exemptions (Section II.C's fixed component).

    Exempt queues keep whatever cap they agreed; everyone else gets
    ``min(agreed, cap)`` — a cap already agreed by the job (via its queue or
    the two-part mechanism) wins when it is stricter than the stage's cap.
    """

    name = "cap"

    def __init__(self, cap_fraction: float = 0.75, exempt_queues: Iterable[str] = ("urgent",)) -> None:
        if not 0.0 < cap_fraction <= 1.0:
            raise SchedulingError(f"cap_fraction must lie in (0, 1], got {cap_fraction!r}")
        self.cap_fraction = float(cap_fraction)
        self.exempt_queues = frozenset(exempt_queues)

    def apply(
        self,
        job: Job,
        base: Optional[float],
        cluster: Cluster,
        context: SchedulingContext,
    ) -> Optional[float]:
        if job.queue_name in self.exempt_queues:
            return base
        if base is not None:
            return min(base, self.cap_fraction)
        return self.cap_fraction


class DirtyHourCapStage(PowerStage):
    """Additionally cap jobs started during carbon-intense (dirty) hours.

    Deferral moves deferrable work into green hours; this stage slows down
    the work that cannot wait, so proportionally more of the facility's
    energy is drawn when the grid is green.
    """

    name = "dirty-cap"

    def __init__(self, cap_fraction: float = 0.7) -> None:
        if not 0.0 < cap_fraction <= 1.0:
            raise SchedulingError(f"cap_fraction must lie in (0, 1], got {cap_fraction!r}")
        self.cap_fraction = float(cap_fraction)

    def apply(
        self,
        job: Job,
        base: Optional[float],
        cluster: Cluster,
        context: SchedulingContext,
    ) -> Optional[float]:
        if not context.is_green_hour():
            if base is None:
                return self.cap_fraction
            return min(base, self.cap_fraction)
        return base


class DeadlineSlackCapStage(PowerStage):
    """Per-job deadline-aware caps: run each job as slow as its deadline allows.

    For a deadline-carrying job, picks the *tightest* cap (from
    ``min_fraction`` upward in ``step_fraction`` increments) whose modelled
    slowdown still finishes the job by its deadline; jobs without deadlines
    (or without slack) pass through unchanged.  This converts deadline slack
    directly into energy savings instead of queue deferral.
    """

    name = "deadline-cap"

    def __init__(self, min_fraction: float = 0.5, step_fraction: float = 0.05) -> None:
        if not 0.0 < min_fraction <= 1.0:
            raise SchedulingError(f"min_fraction must lie in (0, 1], got {min_fraction!r}")
        if not 0.0 < step_fraction <= 0.5:
            raise SchedulingError(f"step_fraction must lie in (0, 0.5], got {step_fraction!r}")
        self.min_fraction = float(min_fraction)
        self.step_fraction = float(step_fraction)

    def apply(
        self,
        job: Job,
        base: Optional[float],
        cluster: Cluster,
        context: SchedulingContext,
    ) -> Optional[float]:
        if job.deadline_h is None:
            return base
        budget_h = job.deadline_h - context.now_h
        if budget_h <= job.duration_h:
            return base  # no slack: do not slow an already-tight job further
        model = cluster.gpu_power_model
        tdp_w = cluster.gpu_spec.tdp_w
        ceiling = 1.0 if base is None else base
        fraction = self.min_fraction
        while fraction < ceiling - 1e-12:
            cap_w = model.clamp_power_limit_scalar(fraction * tdp_w)
            slowdown = model.slowdown_factor_scalar(cap_w, job.utilization)
            if job.duration_h * slowdown <= budget_h:
                return fraction
            fraction += self.step_fraction
        return base


class AdaptiveCapStage(PowerStage, SimulatorObserver):
    """Budget-following caps on *running* jobs, driven by the simulator's ticks.

    Wraps :class:`~repro.scheduler.powercap.AdaptivePowerCapController` as a
    pipeline stage: at every tick the controller compares the cluster's IT
    power against its budget and tightens caps on the largest consumers (or
    relaxes them when there is headroom); changed caps are pushed onto the
    live allocations through :meth:`~repro.cluster.resources.Cluster.
    set_power_limit`.  A job's remaining runtime is *not* re-planned on re-cap
    (durations are fixed at start) — the stage shapes the facility power
    series, which is what demand-charge/curtailment control is about.

    Per-job attributed energy stays exact under re-caps: every cap change
    accrues the segment just run at the *old* cap, and on finish the stage
    replaces the simulator's single-cap attribution with the time-weighted
    integral over all segments.

    As a :class:`~repro.cluster.observers.SimulatorObserver` it is wired into
    the event loop automatically when its pipeline is handed to a
    :class:`~repro.cluster.simulator.ClusterSimulator`.
    """

    name = "adaptive"

    def __init__(
        self,
        power_budget_w: float,
        *,
        min_cap_fraction: float = 0.5,
        step_fraction: float = 0.05,
    ) -> None:
        self.controller = AdaptivePowerCapController(
            power_budget_w,
            min_cap_fraction=min_cap_fraction,
            step_fraction=step_fraction,
        )
        #: job_id -> (segment start hour, energy accrued in earlier segments),
        #: tracked only for jobs whose cap has been changed mid-run.
        self._accrual: dict[str, tuple[float, float]] = {}

    # -- power stage: new starts keep their chained cap; adaptation is live --
    def apply(
        self,
        job: Job,
        base: Optional[float],
        cluster: Cluster,
        context: SchedulingContext,
    ) -> Optional[float]:
        return base

    def _segment_energy_j(self, job: Job, cluster: Cluster, since_h: float, now_h: float) -> float:
        """Energy of one constant-cap segment at the job's current cap."""
        gpu_power = cluster.gpu_power_model.power_w_scalar(
            job.utilization, job.assigned_power_cap_w
        )
        return job.n_gpus * gpu_power * max(now_h - since_h, 0.0) * 3600.0

    # -- observer: seed at start, one control step per tick ----------------
    def on_job_start(self, simulator, job: Job, now_h: float) -> None:
        # Caps imposed by the rest of the power chain (static, dirty-hour,
        # deadline caps) must survive into the control loop: seed the
        # controller with the job's actual starting cap, or its first step
        # would reset the job toward uncapped.
        if job.assigned_power_cap_w is not None:
            tdp_w = simulator.cluster.gpu_spec.tdp_w
            self.controller.seed_cap(job.job_id, job.assigned_power_cap_w / tdp_w)

    def on_tick(self, simulator, now_h: float, it_power_w: float) -> None:
        running = simulator.running_jobs
        caps = self.controller.update(running, it_power_w)
        if not running:
            return
        cluster = simulator.cluster
        model = cluster.gpu_power_model
        tdp_w = cluster.gpu_spec.tdp_w
        changed = False
        for job in running:
            fraction = caps.get(job.job_id, 1.0)
            cap_w = None if fraction >= 1.0 else model.clamp_power_limit_scalar(fraction * tdp_w)
            if (
                cap_w is not None
                and job.assigned_power_cap_w is not None
                and abs(cap_w - job.assigned_power_cap_w) < 1e-9
            ):
                continue  # round-trip through the fraction left the cap as-is
            if cap_w != job.assigned_power_cap_w:
                # Close the segment run at the old cap before switching.
                first_since = job.start_time_h if job.start_time_h is not None else now_h
                since_h, accrued_j = self._accrual.get(job.job_id, (first_since, 0.0))
                accrued_j += self._segment_energy_j(job, cluster, since_h, now_h)
                self._accrual[job.job_id] = (now_h, accrued_j)
                cluster.set_power_limit(job.job_id, cap_w)
                job.assigned_power_cap_w = cap_w
                changed = True
        if changed:
            simulator.refresh_it_power()

    def on_job_finish(self, simulator, job: Job, now_h: float, *, completed: bool) -> None:
        entry = self._accrual.pop(job.job_id, None)
        if entry is None:
            return  # cap never changed: the simulator's attribution is exact
        since_h, accrued_j = entry
        job.energy_j = accrued_j + self._segment_energy_j(
            job, simulator.cluster, since_h, now_h
        )
