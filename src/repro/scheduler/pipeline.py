"""The staged policy pipeline — the scheduler, built from stages.

A :class:`PolicyPipeline` composes one :class:`~repro.scheduler.stages.
OrderingStage`, any number of :class:`~repro.scheduler.stages.AdmissionGate`\\ s,
one :class:`~repro.scheduler.stages.Placement` and a chain of
:class:`~repro.scheduler.stages.PowerStage`\\ s into a complete scheduling
policy.  The ordering stage's key is the pipeline's :attr:`~PolicyPipeline.
queue_key`: the simulator keeps the pending queue sorted on it, so a round
never sorts.  Per round the pipeline:

1. lets every admission gate read the round's signal once (``begin_round``);
2. walks the queue, in key order, through placement: a job that does not fit
   the free GPUs is skipped (backfill) or blocks the rest of the round
   (strict FIFO);
3. asks the gates that do not read the power cap (short-circuiting on the
   first rejection; gate rejections *skip* the job — they never block the
   queue);
4. only then resolves the job's power cap by threading
   ``job.power_cap_fraction`` through the power chain, and asks the gates
   that read it; admitted jobs are committed to each gate so stateful gates
   can consume their resource;
5. emits a :class:`~repro.scheduler.base.ScheduleDecision` with the resolved
   cap and the placement's packing preference.

Neither ``admits`` nor a power stage has side effects, so asking the
cap-free gates first decides exactly what asking every gate in spec order
would.

Stages that implement :class:`~repro.cluster.observers.SimulatorObserver`
(e.g. the adaptive power-cap stage) are surfaced through :meth:`PolicyPipeline.
observers`, which the cluster simulator subscribes automatically.

See :mod:`~repro.scheduler.compose` for the spec grammar that names any
composition, and :func:`~repro.core.levers.register_policy` for the canned
ones.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..cluster.observers import SimulatorObserver
from ..cluster.resources import Cluster
from ..errors import SchedulingError
from .base import ScheduleDecision, SchedulingContext
from .job import Job
from .stages import AdmissionGate, OrderingStage, Placement, PowerStage, SubmitOrdering

__all__ = ["PolicyPipeline"]

#: Default placement when a composition names none: backfill, packed.
_DEFAULT_PLACEMENT = Placement(name="backfill", stop_at_first_blocked=False, pack=True)


class PolicyPipeline:
    """A scheduling policy composed from explicit stages.

    Every policy is one of these.  The simulator relies on :attr:`queue_key`
    being a total order over static job fields (a waiting job never moves),
    and on :meth:`select` never exceeding the free GPUs, never repeating a
    job and never modifying ``pending``.

    Parameters
    ----------
    ordering:
        Queue ordering (default: submission order).
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
        self._cap_free_gates = tuple(gate for gate in self.gates if not gate.reads_cap)
        self._cap_gates = tuple(gate for gate in self.gates if gate.reads_cap)
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
    # The simulator's interface
    # ------------------------------------------------------------------
    def cap_for(self, job: Job, cluster: Cluster, context: SchedulingContext) -> Optional[float]:
        """The job's resolved power cap: its own cap through the power chain."""
        cap = job.power_cap_fraction
        for stage in self.power:
            cap = stage.apply(job, cap, cluster, context)
        return cap

    @property
    def queue_key(self) -> Callable[[Job], tuple]:
        """The ordering stage's key: the simulator keeps its queue sorted on it."""
        return self.ordering.key

    def select(
        self, pending: list[Job], cluster: Cluster, context: SchedulingContext
    ) -> list[ScheduleDecision]:
        """The jobs to start now, from the simulator's queue in key order."""
        gates = self.gates
        for gate in gates:
            gate.begin_round(cluster, context)
        cap_free_gates = self._cap_free_gates
        cap_gates = self._cap_gates
        decisions: list[ScheduleDecision] = []
        remaining = cluster.n_free_gpus
        stop_at_first_blocked = self.placement.stop_at_first_blocked
        pack = self.placement.pack
        for job in pending:
            if job.n_gpus > remaining:
                if stop_at_first_blocked:
                    break
                continue
            # Each ``else`` runs only when no gate in its loop rejected the job.
            for gate in cap_free_gates:
                if not gate.admits(job, cluster, context, None):
                    break
            else:
                cap = self.cap_for(job, cluster, context)
                for gate in cap_gates:
                    if not gate.admits(job, cluster, context, cap):
                        break
                else:
                    for gate in gates:
                        gate.commit(job, cluster, context, cap)
                    decisions.append(
                        ScheduleDecision(job=job, power_cap_fraction=cap, pack=pack)
                    )
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
