"""The staged policy pipeline — a :class:`Scheduler` built from stages.

A :class:`PolicyPipeline` composes one :class:`~repro.scheduler.stages.
OrderingStage`, any number of :class:`~repro.scheduler.stages.AdmissionGate`\\ s,
one :class:`~repro.scheduler.stages.Placement` and a chain of
:class:`~repro.scheduler.stages.PowerStage`\\ s into a complete scheduling
policy.  Per round it:

1. orders the pending queue (ordering stage);
2. walks the ordered jobs through placement: a job that does not fit the free
   GPUs is skipped (backfill) or blocks the rest of the round (strict FIFO);
3. resolves the job's power cap by threading ``job.power_cap_fraction``
   through the power chain;
4. asks every admission gate (short-circuiting on the first rejection; gate
   rejections *skip* the job — they never block the queue); admitted jobs are
   committed to each gate so stateful gates can consume their resource;
5. emits a :class:`~repro.scheduler.base.ScheduleDecision` with the resolved
   cap and the placement's packing preference.

Stages that implement :class:`~repro.cluster.observers.SimulatorObserver`
(e.g. the adaptive power-cap stage) are surfaced through :meth:`PolicyPipeline.
observers`, which the cluster simulator subscribes automatically.

See :mod:`~repro.scheduler.compose` for the spec grammar that names any
composition, and :func:`~repro.core.levers.register_policy` for the canned
ones.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..cluster.observers import SimulatorObserver
from ..cluster.resources import Cluster
from ..errors import SchedulingError
from .base import ScheduleDecision, Scheduler, SchedulingContext
from .job import Job
from .stages import AdmissionGate, OrderingStage, Placement, PowerStage, SubmitOrdering

__all__ = ["PolicyPipeline"]

#: Default placement when a composition names none: backfill, packed.
_DEFAULT_PLACEMENT = Placement(name="backfill", stop_at_first_blocked=False, pack=True)


class PolicyPipeline(Scheduler):
    """A scheduling policy composed from explicit stages.

    Parameters
    ----------
    ordering:
        Queue ordering per round (default: submission order).
    gates:
        Admission gates, consulted in order for every fitting job.
    placement:
        Queue-to-capacity flow (default: backfill, packed).
    power:
        Power-cap transformer chain, applied in order over the job's own cap.
    name:
        Policy name used in benchmark tables and result labels; defaults to
        a ``+``-joined summary of the stage names.
    """

    def __init__(
        self,
        *,
        ordering: Optional[OrderingStage] = None,
        gates: Sequence[AdmissionGate] = (),
        placement: Optional[Placement] = None,
        power: Sequence[PowerStage] = (),
        name: Optional[str] = None,
    ) -> None:
        self.ordering = ordering or SubmitOrdering()
        self.gates = tuple(gates)
        self.placement = placement or _DEFAULT_PLACEMENT
        self.power = tuple(power)
        for stage, kind in (
            (self.ordering, OrderingStage),
            (self.placement, Placement),
        ):
            if not isinstance(stage, kind):
                raise SchedulingError(f"{stage!r} is not a valid {kind.__name__}")
        self.name = name if name is not None else self._default_name()

    def _default_name(self) -> str:
        parts = [self.placement.name]
        if not isinstance(self.ordering, SubmitOrdering):
            parts.insert(0, self.ordering.name)
        parts.extend(gate.name for gate in self.gates)
        parts.extend(stage.name for stage in self.power)
        return "+".join(parts)

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------
    def cap_for(self, job: Job, cluster: Cluster, context: SchedulingContext) -> Optional[float]:
        """The job's resolved power cap: its own cap through the power chain."""
        cap = job.power_cap_fraction
        for stage in self.power:
            cap = stage.apply(job, cap, cluster, context)
        return cap

    def select(
        self, pending: list[Job], cluster: Cluster, context: SchedulingContext
    ) -> list[ScheduleDecision]:
        ordered = self.ordering.order(pending, context)
        for gate in self.gates:
            gate.begin_round(cluster, context)
        decisions: list[ScheduleDecision] = []
        remaining = cluster.n_free_gpus
        stop_at_first_blocked = self.placement.stop_at_first_blocked
        pack = self.placement.pack
        for job in ordered:
            if job.n_gpus > remaining:
                if stop_at_first_blocked:
                    break
                continue
            cap = self.cap_for(job, cluster, context)
            if not all(gate.admits(job, cluster, context, cap) for gate in self.gates):
                continue
            for gate in self.gates:
                gate.commit(job, cluster, context, cap)
            decisions.append(ScheduleDecision(job=job, power_cap_fraction=cap, pack=pack))
            remaining -= job.n_gpus
        return decisions

    def observers(self) -> tuple[SimulatorObserver, ...]:
        """Stages that want simulator lifecycle hooks (e.g. adaptive caps)."""
        seen: list[SimulatorObserver] = []
        for stage in (self.ordering, *self.gates, self.placement, *self.power):
            if isinstance(stage, SimulatorObserver) and stage not in seen:
                seen.append(stage)
        return tuple(seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PolicyPipeline(name={self.name!r}, ordering={self.ordering!r}, "
            f"gates={list(self.gates)!r}, placement={self.placement!r}, "
            f"power={list(self.power)!r})"
        )
