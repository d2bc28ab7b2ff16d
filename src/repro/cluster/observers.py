"""Lifecycle hooks for the cluster simulator.

A :class:`SimulatorObserver` receives callbacks from
:class:`~repro.cluster.simulator.ClusterSimulator` at well-defined points of
the event loop, so adaptive controllers, telemetry sinks and experiment
instrumentation can react to the run *without* being special-cased inside the
loop itself:

* ``on_job_start`` / ``on_job_finish`` — a job transitioned state (finish
  fires for both completion and horizon interruption);
* ``on_round`` — a scheduling round just executed (the policy was consulted);
* ``on_tick`` — the recording tick fired, *after* the power sample for the
  tick was taken, so control actions an observer applies here show up from
  the next tick on (measure, then actuate).

Observers are attached either explicitly (``ClusterSimulator(...,
observers=[...])``) or implicitly by the scheduling policy:
the simulator asks its scheduler for :meth:`~repro.scheduler.pipeline.
PolicyPipeline.observers` at construction, which is how pipeline stages that carry run-time
state (e.g. the adaptive power-cap stage) get wired into the loop they need.

Every hook receives the simulator itself, giving observers access to the
cluster, the running set and the delta-maintained IT power through public
accessors.  An observer re-caps a running job through
:meth:`~repro.cluster.simulator.ClusterSimulator.set_power_cap`, which bills
the segment run at the old cap and refreshes the cached IT power.

The bundled :class:`MetricsObserver` turns the hooks into
:mod:`repro.obs.metrics` series when tracing is on.

This module is deliberately import-light (no scheduler or ``repro.obs``
imports at run time) so the simulator, the scheduler packages and
``repro.obs`` can depend on it without cycles.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry
    from ..scheduler.base import ScheduleDecision, SchedulingContext
    from ..scheduler.job import Job
    from .simulator import ClusterSimulator

__all__ = ["SimulatorObserver", "MetricsObserver"]

#: Bucket bounds for the per-round started-jobs histogram.
_DECISION_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


class SimulatorObserver:
    """Base class for simulator lifecycle hooks; every method is a no-op.

    Subclass and override only the hooks you need.  Hooks must not submit or
    start jobs (that is the scheduler's contract) but may adjust power caps of
    running allocations, sample state, or record series.
    """

    def on_job_start(self, simulator: "ClusterSimulator", job: "Job", now_h: float) -> None:
        """A job just transitioned to RUNNING and holds its allocation."""

    def on_job_finish(
        self, simulator: "ClusterSimulator", job: "Job", now_h: float, *, completed: bool
    ) -> None:
        """A job just left the cluster (``completed=False`` = horizon cut-off)."""

    def on_round(
        self,
        simulator: "ClusterSimulator",
        now_h: float,
        context: "SchedulingContext",
        decisions: "list[ScheduleDecision]",
    ) -> None:
        """A scheduling round just ran; ``decisions`` lists the started jobs."""

    def on_tick(self, simulator: "ClusterSimulator", now_h: float, it_power_w: float) -> None:
        """The recording tick fired; ``it_power_w`` is the sample just taken."""


class MetricsObserver(SimulatorObserver):
    """Publishes simulator-loop telemetry into a :class:`~repro.obs.metrics.MetricsRegistry`.

    :class:`~repro.cluster.simulator.ClusterSimulator` attaches one
    automatically when the ambient recorder is enabled at construction; with
    tracing off the observer list stays empty and the hook sites are empty
    loops.  The hooks only tally into plain attributes; the simulator calls
    :meth:`publish` at the end of every ``advance`` and ``finalize``, which
    folds the tallies into the registry, so the traced hot path touches one
    object per event instead of one per metric.

    All metric handles are resolved once at construction so publishing does
    no registry lookups.  The hooks fire thousands of times per run on the
    traced hot path, and the <=1.05x tracing-overhead gate budgets against
    them, so each one only bumps a tally here.  There is no ``on_job_start``:
    every decision of a round starts one job, so the per-round sizes give the
    start count and the simulator never dispatches the (no-op) start hook.
    """

    def __init__(self, metrics: "MetricsRegistry") -> None:
        self.metrics = metrics
        self._rounds = metrics.counter(
            "sim_scheduling_rounds_total", help="Scheduling rounds executed"
        )
        self._jobs_started = metrics.counter(
            "sim_jobs_started_total", help="Jobs that acquired an allocation"
        )
        self._jobs_finished = metrics.counter(
            "sim_jobs_finished_total", help="Jobs that left the cluster"
        )
        self._ticks = metrics.counter(
            "sim_ticks_total", help="Recording ticks fired"
        )
        self._queue_depth = metrics.gauge(
            "sim_queue_depth", help="Pending jobs after the last scheduling round"
        )
        self._it_power = metrics.gauge(
            "sim_it_power_w", help="IT power at the last recording tick (W)"
        )
        self._utilization = metrics.gauge(
            "sim_gpu_utilization", help="Allocated GPU fraction at the last tick"
        )
        self._round_decisions = metrics.histogram(
            "sim_round_decisions",
            help="Jobs started per scheduling round",
            buckets=_DECISION_BUCKETS,
        )
        # Tallies since the last publish.
        self._rounds_by_size: dict[int, int] = {}
        self._last_queue_depth = 0
        self._n_finished = 0
        self._n_ticks = 0
        self._last_it_power_w = 0.0
        self._last_utilization: Optional[float] = None

    def on_job_finish(
        self, simulator: "ClusterSimulator", job: "Job", now_h: float, *, completed: bool
    ) -> None:
        self._n_finished += 1

    def on_round(
        self,
        simulator: "ClusterSimulator",
        now_h: float,
        context: "SchedulingContext",
        decisions: "list[ScheduleDecision]",
    ) -> None:
        rounds_by_size = self._rounds_by_size
        started = len(decisions)
        rounds_by_size[started] = rounds_by_size.get(started, 0) + 1
        self._last_queue_depth = simulator.n_pending

    def on_tick(self, simulator: "ClusterSimulator", now_h: float, it_power_w: float) -> None:
        self._n_ticks += 1
        self._last_it_power_w = it_power_w
        cluster = simulator.cluster
        total = cluster.total_gpus
        if total:
            self._last_utilization = 1.0 - cluster.n_free_gpus / total

    def publish(self) -> None:
        """Fold the tallies since the last publish into the registry's series."""
        rounds_by_size = self._rounds_by_size
        if rounds_by_size:
            self._rounds_by_size = {}
            hist = self._round_decisions
            for started, rounds in rounds_by_size.items():
                hist.counts[bisect_left(hist.buckets, started)] += rounds
                hist.total += started * rounds
                hist.count += rounds
                self._rounds.inc(rounds)
                self._jobs_started.inc(started * rounds)
            low = float(min(rounds_by_size))
            high = float(max(rounds_by_size))
            if hist.min is None or low < hist.min:
                hist.min = low
            if hist.max is None or high > hist.max:
                hist.max = high
            self._queue_depth.set(self._last_queue_depth)
        if self._n_finished:
            self._jobs_finished.inc(self._n_finished)
            self._n_finished = 0
        if self._n_ticks:
            self._ticks.inc(self._n_ticks)
            self._n_ticks = 0
            self._it_power.set(self._last_it_power_w)
            if self._last_utilization is not None:
                self._utilization.set(self._last_utilization)
