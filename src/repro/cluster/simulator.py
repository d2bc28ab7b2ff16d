"""The cluster simulator.

Executes a trace of :class:`~repro.scheduler.job.Job` objects on a
:class:`~repro.cluster.resources.Cluster` under a chosen scheduling policy,
with optional coupling to a weather trace (cooling overhead), a grid model
(carbon intensity and price) and a facility power budget.  It produces the
hourly power series and the job-level statistics that every policy-comparison
experiment in the paper's framework needs: total IT and facility energy,
emissions, cost, wait times, deadline misses, and delivered GPU-hours (the
activity quantity ``A`` of Eq. 1).

Design notes
------------
* Event-driven: job submissions and completions are events; a TICK event at a
  fixed cadence records the power series and lets time-varying context
  (carbon intensity, temperature) influence scheduling decisions.
* IT power is delta-maintained by the cluster itself: each allocate/release/
  re-cap adjusts the running total by the affected job's own GPUs, so reading
  it at a tick or scheduling round is O(1).  The tests compare it against a
  scan reference pool (``tests/scan_cluster.py``) that sums every GPU's power
  again, and that can stand in for the cluster in a whole simulation.
* The time-varying substrates are one table, built at construction: a
  ``(carbon, price, renewable, temperature, pue)`` row of Python floats per
  hour, with PUE evaluated in one vectorized pass over the weather trace.  A
  round's context costs one index computation and one tuple unpack, and the
  result's tick series read the same rows.
* Events are plain named tuples compared by ``heapq`` in C; the loop reads
  the next event's time once per event and once per instant.
* Scheduling happens after every batch of simultaneous events, so a finish
  and the start of the next job can occur at the same simulated instant.
* The pending queue is kept sorted on the policy's
  :attr:`~repro.scheduler.pipeline.PolicyPipeline.queue_key`: a submitted job is
  bisected into a parallel list of keys, and a started job is found by its
  key and deleted, so a round hands the policy its queue without copying or
  sorting it.
* Per-job energy is billed here and nowhere else: a job's GPUs' power, read
  from its allocation record, times the hours it ran at that cap.
  :meth:`ClusterSimulator.set_power_cap` bills the segment a re-cap closes,
  and a job's finish bills the open one from the record ``release``
  returns, so ``job.energy_j`` is final before any
  ``on_job_finish`` observer reads it.
* Lifecycle hooks: :class:`~repro.cluster.observers.SimulatorObserver`\\ s
  receive ``on_job_start`` / ``on_job_finish`` / ``on_round`` / ``on_tick``
  callbacks, so adaptive controllers and telemetry live outside the loop.
  Observers are attached explicitly (``observers=``) or implicitly by the
  scheduling policy via
  :meth:`~repro.scheduler.pipeline.PolicyPipeline.observers`.  Each hook site
  loops over the bound methods of the observers that override that hook, so
  with no observers it is an empty loop and the hot path is unchanged.
* Stepping API: :meth:`ClusterSimulator.run` is a thin composition of
  :meth:`~ClusterSimulator.begin` (validate and enqueue the trace),
  :meth:`~ClusterSimulator.advance` (process events strictly before a time
  bound) and :meth:`~ClusterSimulator.finalize` (drain to the horizon, cut
  off still-running jobs, assemble the result).  Jobs may also be fed in
  mid-run with :meth:`~ClusterSimulator.submit`, which is what lets a
  :class:`~repro.fleet.FleetSimulator` co-simulate several sites in hourly
  lockstep and dispatch arriving jobs between them — the event order (and
  therefore every job record) is bit-identical to a monolithic ``run()``
  of the same per-site trace.
* Checkpoints hold inputs, not state: a serve session journals the jobs it
  was fed and replays them onto a fresh simulator
  (:mod:`repro.serve.checkpoint`).  :meth:`ClusterSimulator.snapshot` is
  only the run's O(1) cursor, which a replay checks itself against.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from ..config import require_positive
from ..errors import SimulationError, SteppingError
from ..grid.iso_ne import IsoNeLikeGrid
from ..obs.recorder import get_recorder
from ..scheduler.base import ScheduleDecision, SchedulingContext
from ..scheduler.job import Job, JobState
from .cooling import CoolingModel
from .events import EventQueue, EventType
from .observers import MetricsObserver, SimulatorObserver
from .resources import Cluster

if TYPE_CHECKING:  # pragma: no cover - typing only (the pipeline imports this package)
    from ..scheduler.pipeline import PolicyPipeline

__all__ = [
    "SimulationConfig",
    "JobRecord",
    "SimulationResult",
    "ClusterSimulator",
    "SimulatorObserver",
]

_JOB_FINISH = EventType.JOB_FINISH
_JOB_SUBMIT = EventType.JOB_SUBMIT
_TICK = EventType.TICK


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulation run.

    Attributes
    ----------
    horizon_h:
        Length of the simulated window in hours.  Jobs still running at the
        horizon are accounted for up to the horizon only.
    tick_h:
        Cadence of the power-recording / re-scheduling tick.
    facility_power_budget_w:
        Optional facility power budget passed to the scheduler.
    carbon_threshold_quantile:
        Quantile of the horizon's carbon-intensity distribution used as the
        "green hour" threshold for carbon-aware policies.
    """

    horizon_h: float = 7.0 * 24.0
    tick_h: float = 1.0
    facility_power_budget_w: Optional[float] = None
    carbon_threshold_quantile: float = 0.5

    def __post_init__(self) -> None:
        require_positive(self.horizon_h, "horizon_h")
        require_positive(self.tick_h, "tick_h")
        if self.facility_power_budget_w is not None and self.facility_power_budget_w <= 0:
            raise SimulationError("facility_power_budget_w must be positive when given")
        if not 0.0 <= self.carbon_threshold_quantile <= 1.0:
            raise SimulationError("carbon_threshold_quantile must lie in [0, 1]")


@dataclass(frozen=True)
class JobRecord:
    """Immutable per-job outcome extracted at the end of a run."""

    job_id: str
    user_id: str
    queue_name: str
    n_gpus: int
    submit_time_h: float
    start_time_h: Optional[float]
    finish_time_h: Optional[float]
    wait_time_h: Optional[float]
    baseline_duration_h: float
    actual_duration_h: Optional[float]
    power_cap_w: Optional[float]
    energy_j: float
    completed: bool
    had_deadline: bool
    missed_deadline: bool


# Service-quality formulas over job records: a site passes its own records,
# a fleet the records of every member site, a user profile that user's.


def _waits(records: Iterable[JobRecord]) -> list[float]:
    return [r.wait_time_h for r in records if r.wait_time_h is not None]


def mean_wait(records: Iterable[JobRecord]) -> float:
    """Mean queue wait in hours among jobs that started (NaN when none started)."""
    waits = _waits(records)
    return float(np.mean(waits)) if waits else float("nan")


def p95_wait(records: Iterable[JobRecord]) -> float:
    """95th-percentile queue wait in hours among jobs that started (NaN when none)."""
    waits = _waits(records)
    return float(np.percentile(waits, 95)) if waits else float("nan")


def miss_rate(records: Iterable[JobRecord]) -> float:
    """Fraction of deadline-carrying jobs that missed (or never met) their deadline."""
    deadline_jobs = [r for r in records if r.had_deadline]
    if not deadline_jobs:
        return 0.0
    missed = sum(1 for r in deadline_jobs if r.missed_deadline or not r.completed)
    return missed / len(deadline_jobs)


#: The job-record fields a result digest covers (a fleet's omits the last).
DIGEST_FIELDS = ("job_id", "start_time_h", "finish_time_h", "energy_j", "power_cap_w", "completed",
                 "missed_deadline")


def repr_digest(items: Iterable) -> str:
    """sha256 hex of ``repr(list(items))``: the one formula of every result digest."""
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()


def energy_per_gpu_hour(facility_energy_kwh: float, delivered_gpu_hours: float) -> float:
    """Facility kWh per delivered baseline GPU-hour (NaN when nothing was delivered)."""
    if delivered_gpu_hours == 0:
        return float("nan")
    return facility_energy_kwh / delivered_gpu_hours


@dataclass
class SimulationResult:
    """Everything a policy-comparison experiment needs from one run."""

    scheduler_name: str
    config: SimulationConfig
    tick_times_h: np.ndarray
    it_power_w: np.ndarray
    facility_power_w: np.ndarray
    pue: np.ndarray
    carbon_intensity_g_per_kwh: Optional[np.ndarray]
    price_per_mwh: Optional[np.ndarray]
    job_records: list[JobRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Energy / emissions / cost totals
    # ------------------------------------------------------------------
    @property
    def it_energy_kwh(self) -> float:
        """Total IT energy over the horizon in kWh."""
        return float(np.sum(self.it_power_w) * self.config.tick_h / 1e3)

    @property
    def facility_energy_kwh(self) -> float:
        """Total facility energy (IT + cooling overhead) in kWh."""
        return float(np.sum(self.facility_power_w) * self.config.tick_h / 1e3)

    @property
    def cooling_energy_kwh(self) -> float:
        """Cooling / overhead energy in kWh."""
        return self.facility_energy_kwh - self.it_energy_kwh

    @property
    def average_pue(self) -> float:
        """Energy-weighted average PUE over the horizon."""
        if self.it_energy_kwh == 0:
            return float("nan")
        return self.facility_energy_kwh / self.it_energy_kwh

    @property
    def total_emissions_kg(self) -> float:
        """Total emissions in kgCO2e (0 when no grid model was attached)."""
        if self.carbon_intensity_g_per_kwh is None:
            return 0.0
        hourly_kwh = self.facility_power_w * self.config.tick_h / 1e3
        grams = float(np.sum(hourly_kwh * self.carbon_intensity_g_per_kwh))
        return grams / 1e3

    @property
    def total_cost_usd(self) -> float:
        """Total electricity cost in dollars (0 when no grid model was attached)."""
        if self.price_per_mwh is None:
            return 0.0
        hourly_mwh = self.facility_power_w * self.config.tick_h / 1e6
        return float(np.sum(hourly_mwh * self.price_per_mwh))

    @property
    def peak_facility_power_w(self) -> float:
        """Largest facility power observed at any tick."""
        if self.facility_power_w.size == 0:
            return 0.0
        return float(np.max(self.facility_power_w))

    # ------------------------------------------------------------------
    # Activity / service quality (the A(.) >= alpha side of Eq. 1)
    # ------------------------------------------------------------------
    @property
    def completed_jobs(self) -> int:
        """Number of jobs that completed within the horizon."""
        return sum(1 for r in self.job_records if r.completed)

    @property
    def delivered_gpu_hours(self) -> float:
        """Baseline GPU-hours of work completed (the useful-work measure of activity)."""
        return sum(r.n_gpus * r.baseline_duration_h for r in self.job_records if r.completed)

    @property
    def mean_wait_h(self) -> float:
        """Mean queue wait among jobs that started (NaN when none started)."""
        return mean_wait(self.job_records)

    @property
    def p95_wait_h(self) -> float:
        """95th-percentile queue wait among jobs that started."""
        return p95_wait(self.job_records)

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of deadline-carrying jobs that missed (or never met) their deadline."""
        return miss_rate(self.job_records)

    @property
    def energy_per_gpu_hour_kwh(self) -> float:
        """Facility energy per delivered baseline GPU-hour (lower is better)."""
        return energy_per_gpu_hour(self.facility_energy_kwh, self.delivered_gpu_hours)

    def summary(self) -> dict[str, float]:
        """A flat dictionary of the headline metrics (for tables and reports)."""
        return {
            "scheduler": self.scheduler_name,
            "it_energy_kwh": self.it_energy_kwh,
            "facility_energy_kwh": self.facility_energy_kwh,
            "cooling_energy_kwh": self.cooling_energy_kwh,
            "average_pue": self.average_pue,
            "emissions_kg": self.total_emissions_kg,
            "cost_usd": self.total_cost_usd,
            "peak_facility_power_kw": self.peak_facility_power_w / 1e3,
            "completed_jobs": float(self.completed_jobs),
            "delivered_gpu_hours": self.delivered_gpu_hours,
            "mean_wait_h": self.mean_wait_h,
            "p95_wait_h": self.p95_wait_h,
            "energy_per_gpu_hour_kwh": self.energy_per_gpu_hour_kwh,
        }

    def digest(self) -> str:
        """:func:`repr_digest` of the job records' :data:`DIGEST_FIELDS`; not of the tick series."""
        return repr_digest(map(attrgetter(*DIGEST_FIELDS), self.job_records))


class ClusterSimulator:
    """Runs a job trace through a scheduling policy on a simulated cluster.

    ``sim.begin``/``sim.advance``/``sim.finalize`` spans go to the ambient
    recorder (:func:`repro.obs.get_recorder`) read at construction.  When it
    is enabled a
    :class:`~repro.cluster.observers.MetricsObserver` is attached automatically,
    publishing queue depth, IT power, GPU utilization and round/job counters
    into its metrics registry at the end of every :meth:`advance` and
    :meth:`finalize`; when disabled (the default) the observer list and the
    hot loop are untouched.

    Parameters
    ----------
    cluster:
        The cluster to schedule onto (its allocation state is mutated; use a
        fresh cluster per run).
    scheduler:
        The scheduling policy under test.
    config:
        Run parameters.
    weather_hourly_c:
        Optional hourly outdoor temperature covering at least the horizon;
        required when a cooling model is supplied.
    cooling:
        Optional cooling model; without one the facility runs at PUE = 1.
    grid:
        Optional grid model supplying hourly carbon intensity and price.
    observers:
        Lifecycle observers to attach; the scheduler's own
        :meth:`~repro.scheduler.pipeline.PolicyPipeline.observers` are appended
        automatically (pipeline stages such as adaptive power caps use this).
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: PolicyPipeline,
        config: SimulationConfig | None = None,
        *,
        weather_hourly_c: Optional[np.ndarray] = None,
        cooling: Optional[CoolingModel] = None,
        grid: Optional[IsoNeLikeGrid] = None,
        observers: Optional[Sequence[SimulatorObserver]] = None,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.config = config or SimulationConfig()
        self.cooling = cooling
        self.grid = grid
        self._recorder = get_recorder()
        self._observers: list[SimulatorObserver] = list(observers or ())
        self._observers.extend(scheduler.observers())
        self._metrics_observer: Optional[MetricsObserver] = None
        if self._recorder.enabled:
            self._metrics_observer = MetricsObserver(self._recorder.metrics)
            self._observers.append(self._metrics_observer)
        self._bind_hooks()
        n_hours_needed = int(np.ceil(self.config.horizon_h)) + 1
        if weather_hourly_c is not None:
            weather = np.asarray(weather_hourly_c, dtype=float)
            if weather.shape[0] < n_hours_needed:
                raise SimulationError(
                    f"weather trace must cover the horizon (+1h): need {n_hours_needed} hours, "
                    f"got {weather.shape[0]}"
                )
            self.weather_hourly_c = weather
        else:
            if cooling is not None:
                raise SimulationError("a cooling model requires a weather trace")
            self.weather_hourly_c = None
        self._carbon_threshold: Optional[float] = None
        if grid is not None:
            if grid.hours.shape[0] < n_hours_needed:
                raise SimulationError(
                    "grid model horizon is shorter than the simulation horizon"
                )
            horizon_slice = grid.carbon_intensity_g_per_kwh[:n_hours_needed]
            quantile = self.config.carbon_threshold_quantile
            self._carbon_threshold = float(np.quantile(horizon_slice, quantile))
        self._hourly_context = self._build_hourly_context()

        # Runtime state
        self._events = EventQueue()
        # The pending queue in queue_key order, and each job's key.
        self._queue_key = scheduler.queue_key
        self._pending: list[Job] = []
        self._pending_keys: list[tuple] = []
        self._running: dict[str, Job] = {}
        # Start hour of the open cap segment, for running jobs re-capped mid-run.
        self._segment_start_h: dict[str, float] = {}
        self._all_jobs: list[Job] = []
        self._seen_ids: set[str] = set()
        self._current_it_power_w = self.cluster.it_power_w()
        self._begun = False
        self._finalized = False
        self._advanced_to = 0.0
        self._tick_times: list[float] = []
        self._tick_it_power: list[float] = []

    def _build_hourly_context(self) -> list[tuple]:
        """One ``(carbon, price, renewable, temperature, pue)`` row per hour.

        The only copy of the time-varying substrates.  Rows cover hours
        ``0..int(horizon_h)``, the range a clamped scheduling time and every
        tick can index.  Values are Python floats (``.tolist()`` gives the
        same value as ``float(series[hour])``), or ``None`` / a PUE of 1.0
        when the substrate is absent.
        """
        n_rows = int(self.config.horizon_h) + 1

        def column(series: Optional[np.ndarray], missing: Optional[float]) -> list:
            if series is None:
                return [missing] * n_rows
            return np.asarray(series[:n_rows], dtype=float).tolist()

        grid, weather = self.grid, self.weather_hourly_c
        pue = None if self.cooling is None else self.cooling.pue_series(weather)
        return list(
            zip(
                column(None if grid is None else grid.carbon_intensity_g_per_kwh, None),
                column(None if grid is None else grid.price_per_mwh, None),
                column(None if grid is None else grid.renewable_share, None),
                column(weather, None),
                column(pue, 1.0),
            )
        )

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def _bind_hooks(self) -> None:
        """Bind each per-event hook to the observers that override it.

        The event loop calls these bound methods directly, so an observer
        pays only for the hooks it implements: the base class's are no-ops
        and are never dispatched.
        """
        self._job_start_hooks = self._overriding("on_job_start")
        self._job_finish_hooks = self._overriding("on_job_finish")
        self._round_hooks = self._overriding("on_round")
        self._tick_hooks = self._overriding("on_tick")

    def _overriding(self, name: str) -> tuple[Callable[..., None], ...]:
        base = getattr(SimulatorObserver, name)
        hooks = (getattr(observer, name) for observer in self._observers)
        return tuple(hook for hook in hooks if getattr(hook, "__func__", None) is not base)

    @property
    def observers(self) -> tuple[SimulatorObserver, ...]:
        """The attached lifecycle observers, in call order."""
        return tuple(self._observers)

    @property
    def running_jobs(self) -> list[Job]:
        """The jobs currently holding allocations (start order)."""
        return list(self._running.values())

    @property
    def current_it_power_w(self) -> float:
        """The delta-maintained IT power as of the last refresh."""
        return self._current_it_power_w

    @property
    def n_pending(self) -> int:
        """Jobs submitted but not yet started (the queue length)."""
        return len(self._pending)

    @property
    def n_running(self) -> int:
        """Jobs currently holding allocations."""
        return len(self._running)

    def scheduling_context(self, now_h: float) -> SchedulingContext:
        """The time-varying context (carbon, price, renewables, PUE) at ``now_h``.

        Public read-only view used by fleet routers and telemetry; the same
        object the scheduler receives at a scheduling round.
        """
        return self._context(now_h)

    # ------------------------------------------------------------------
    # Power accounting
    # ------------------------------------------------------------------
    def refresh_it_power(self) -> None:
        """Pull the cluster's delta-maintained IT power (O(1) read).

        :meth:`set_power_cap` calls this after every re-cap.
        """
        self._current_it_power_w = self.cluster.it_power_w()

    def set_power_cap(self, job: Job, cap_w: Optional[float], now_h: float) -> None:
        """Re-cap a running job at ``now_h`` (``None`` = uncapped).

        Bills the segment the job ran at its old cap into ``job.energy_j``,
        starts a new segment at ``now_h`` and pushes the cap onto the job's
        allocation.  The job's finish time is not re-planned: durations are
        fixed at start.
        """
        since_h = self._segment_start_h.get(job.job_id, job.start_time_h)
        replaced = self.cluster.set_power_limit(job.job_id, cap_w)
        job.energy_j += job.n_gpus * replaced.per_gpu_power_w * max(now_h - since_h, 0.0) * 3600.0
        self._segment_start_h[job.job_id] = now_h
        job.assigned_power_cap_w = cap_w
        self.refresh_it_power()

    # ------------------------------------------------------------------
    # Context
    # ------------------------------------------------------------------
    def _context(self, now_h: float) -> SchedulingContext:
        hour = int(min(max(now_h, 0.0), self.config.horizon_h))
        carbon, price, renewable, temperature, pue = self._hourly_context[hour]
        return SchedulingContext(
            now_h=now_h,
            carbon_intensity_g_per_kwh=carbon,
            carbon_intensity_threshold=self._carbon_threshold,
            price_per_mwh=price,
            renewable_share=renewable,
            outdoor_temperature_c=temperature,
            facility_power_budget_w=self.config.facility_power_budget_w,
            current_it_power_w=self._current_it_power_w,
            current_pue=pue,
        )

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def _enqueue(self, job: Job) -> None:
        key = self._queue_key(job)
        index = bisect_left(self._pending_keys, key)
        self._pending_keys.insert(index, key)
        self._pending.insert(index, job)

    def _dequeue(self, job: Job) -> None:
        keys = self._pending_keys
        index = bisect_left(keys, self._queue_key(job))
        if index == len(keys) or self._pending[index] is not job:
            raise SimulationError(
                f"scheduler {self.scheduler.name!r} started job {job.job_id!r}, "
                f"which is not in the pending queue"
            )
        del keys[index]
        del self._pending[index]

    def _start_job(self, decision: ScheduleDecision, now_h: float) -> None:
        job = decision.job
        if job.n_gpus > self.cluster.n_free_gpus:
            raise SimulationError(
                f"scheduler {self.scheduler.name!r} started job {job.job_id!r} "
                f"needing {job.n_gpus} GPUs with only {self.cluster.n_free_gpus} free"
            )
        spec = self.cluster.gpu_spec
        model = self.cluster.gpu_power_model
        cap_fraction = decision.power_cap_fraction
        if cap_fraction is not None:
            cap_w = model.clamp_power_limit_scalar(cap_fraction * spec.tdp_w)
            slowdown = model.slowdown_factor_scalar(cap_w, job.utilization)
        else:
            cap_w = None
            slowdown = 1.0
        actual_duration_h = job.duration_h * slowdown
        self.cluster.allocate(
            job.job_id,
            job.n_gpus,
            utilization=job.utilization,
            power_limit_w=cap_w,
            pack=decision.pack,
        )
        job.mark_started(now_h, power_cap_w=cap_w, duration_h=actual_duration_h)
        self._running[job.job_id] = job
        self._events.push(now_h + actual_duration_h, EventType.JOB_FINISH, job.job_id)
        for hook in self._job_start_hooks:
            hook(self, job, now_h)

    def _finish_job(self, job_id: str, now_h: float, *, completed: bool = True) -> None:
        job = self._running.pop(job_id, None)
        if job is None:
            raise SimulationError(f"finish event for unknown running job {job_id!r}")
        allocation = self.cluster.release(job.job_id)
        # The open segment: its GPUs' power at the last cap since it was set.
        since_h = self._segment_start_h.pop(job.job_id, job.start_time_h)
        energy_j = job.energy_j + (
            job.n_gpus * allocation.per_gpu_power_w * max(now_h - since_h, 0.0) * 3600.0
        )
        if completed:
            job.mark_completed(now_h, energy_j)
        else:
            job.mark_interrupted(now_h, energy_j)
        for hook in self._job_finish_hooks:
            hook(self, job, now_h, completed=completed)

    # ------------------------------------------------------------------
    # Main loop (stepping API: begin -> [submit/advance]* -> finalize)
    # ------------------------------------------------------------------
    def begin(self, jobs: Sequence[Job] = ()) -> None:
        """Validate and enqueue a trace plus the tick schedule; run nothing yet.

        May only be called once per simulator.  Additional jobs can be fed in
        later with :meth:`submit` (before simulated time passes their submit
        instant), which is how a fleet co-simulation dispatches arriving jobs
        between lockstepped sites.
        """
        if self._begun:
            raise SteppingError("begin() called twice on the same simulator")
        with self._recorder.span(
            "sim.begin", n_jobs=len(jobs), policy=self.scheduler.name
        ):
            self._begun = True
            for job in jobs:
                self.submit(job)
            config = self.config
            n_ticks = int(np.floor(config.horizon_h / config.tick_h)) + 1
            for k in range(n_ticks):
                self._events.push(k * config.tick_h, EventType.TICK, None)

    def submit(self, job: Job) -> None:
        """Feed one PENDING job into the simulation at its own submit time.

        The submit instant must not lie in the simulator's past (events are
        processed in time order); within one instant, jobs are considered in
        submission (call) order, exactly as a monolithic :meth:`run` would.
        """
        if not self._begun:
            raise SteppingError(
                "submit() before begin(): call begin() once to start the run, "
                "then feed jobs in with submit()"
            )
        if self._finalized:
            raise SteppingError("submit() after finalize(): the run is already over")
        if job.submit_time_h < self._events.now_h - 1e-9:
            raise SteppingError(
                f"submit() of job {job.job_id!r} at t={job.submit_time_h}h lies in the "
                f"simulator's past (events were processed up to t={self._events.now_h}h)"
            )
        if job.job_id in self._seen_ids:
            raise SimulationError(f"duplicate job id {job.job_id!r} in trace")
        if job.state is not JobState.PENDING:
            raise SimulationError(
                f"job {job.job_id!r} must be PENDING at the start of a run"
            )
        self._seen_ids.add(job.job_id)
        self._all_jobs.append(job)
        self._events.push(job.submit_time_h, EventType.JOB_SUBMIT, job)

    def advance(self, until_h: float) -> None:
        """Process every event strictly before ``until_h`` (capped at the horizon).

        The right endpoint is exclusive so a lockstep driver can dispatch the
        jobs of window ``[k, k+1)`` *before* the events of instant ``k+1``
        (ticks, later submits) are drained — preserving the exact event order
        of a monolithic run.
        """
        if not self._begun:
            raise SteppingError("advance() before begin(): call begin() first")
        if self._finalized:
            raise SteppingError("advance() after finalize(): the run is already over")
        if until_h < self._advanced_to - 1e-9:
            raise SteppingError(
                f"advance() to t={until_h}h is behind the cursor: the run has "
                f"already advanced to t={self._advanced_to}h (time only moves forward; "
                f"re-advancing to the same bound is a harmless no-op)"
            )
        self._advanced_to = max(self._advanced_to, float(until_h))
        with self._recorder.span("sim.advance", until_h=float(until_h)):
            self._drain(min(until_h - 1e-9, self.config.horizon_h + 1e-9))
        if self._metrics_observer is not None:
            self._metrics_observer.publish()

    def _drain(self, limit_h: float) -> None:
        """The event loop: drain instants with time <= ``limit_h``."""
        events = self._events
        now_h = events.peek_time()
        while now_h is not None and now_h <= limit_h:
            # Drain all events at this instant (finishes first, then submits,
            # then ticks), reading the next event's time once per event.
            allocations_changed = False
            tick_here = False
            while True:
                _, _, _, event_type, payload = events.pop()
                if event_type is _JOB_FINISH:
                    self._finish_job(payload, now_h)
                    allocations_changed = True
                elif event_type is _JOB_SUBMIT:
                    self._enqueue(payload)
                elif event_type is _TICK:
                    tick_here = True
                next_h = events.peek_time()
                if next_h is None or abs(next_h - now_h) >= 1e-9:
                    break
            if allocations_changed:
                self.refresh_it_power()

            # Scheduling round.
            if self._pending and self.cluster.n_free_gpus > 0:
                context = self._context(now_h)
                decisions = self.scheduler.select(self._pending, self.cluster, context)
                for decision in decisions:
                    # Dequeued first, so a job returned twice is not in the
                    # queue the second time.
                    self._dequeue(decision.job)
                    self._start_job(decision, now_h)
                if decisions:
                    self.refresh_it_power()
                for hook in self._round_hooks:
                    hook(self, now_h, context, decisions)

            if tick_here:
                self._tick_times.append(now_h)
                self._tick_it_power.append(self._current_it_power_w)
                # Measure, then actuate: control actions taken here show
                # up from the next tick on.
                for hook in self._tick_hooks:
                    hook(self, now_h, self._current_it_power_w)
            # The round and the hooks may have pushed events, so re-read.
            now_h = events.peek_time()

    def finalize(self) -> SimulationResult:
        """Drain to the horizon, cut off still-running jobs, build the result."""
        if not self._begun:
            raise SteppingError("finalize() before begin(): there is no run to finalize")
        if self._finalized:
            raise SteppingError("finalize() called twice on the same simulator")
        config = self.config
        with self._recorder.span("sim.finalize", policy=self.scheduler.name):
            self._drain(config.horizon_h + 1e-9)
        self._finalized = True

        # Jobs still running at the horizon are accounted up to the horizon but
        # do not count as completed work.
        for job_id in list(self._running):
            self._finish_job(job_id, config.horizon_h, completed=False)
        self.refresh_it_power()
        if self._metrics_observer is not None:
            self._metrics_observer.publish()

        # Every tick lies in [0, horizon_h], so hour int(t) is its table row.
        hourly = self._hourly_context
        rows = [hourly[int(t)] for t in self._tick_times]
        it_power = np.asarray(self._tick_it_power, dtype=float)
        pue = np.array([row[4] for row in rows], dtype=float)
        carbon = price = None
        if self.grid is not None:
            carbon = np.array([row[0] for row in rows], dtype=float)
            price = np.array([row[1] for row in rows], dtype=float)

        records = [self._record_for(job) for job in self._all_jobs]
        return SimulationResult(
            scheduler_name=self.scheduler.name,
            config=config,
            tick_times_h=np.asarray(self._tick_times, dtype=float),
            it_power_w=it_power,
            facility_power_w=it_power * pue,
            pue=pue,
            carbon_intensity_g_per_kwh=carbon,
            price_per_mwh=price,
            job_records=records,
        )

    def run(self, jobs: Sequence[Job]) -> SimulationResult:
        """Simulate the given job trace and return the run's results."""
        self.begin(jobs)
        return self.finalize()

    def snapshot(self) -> dict:
        """The run's cursor as a small JSON-able dict, read in O(1).

        It names where the run stands, not how it got there: the advance
        bound, the clock, the job, queue and tick counts, and the live IT
        power.  Two runs fed the same inputs have equal snapshots at equal
        bounds, so a journal replay checks itself against the snapshot taken
        when its checkpoint was written.
        """
        return {
            "advanced_to": self._advanced_to,
            "now_h": self._events.now_h,
            "jobs": len(self._all_jobs),
            "pending": len(self._pending),
            "running": len(self._running),
            "ticks": len(self._tick_times),
            "it_power_w": self._current_it_power_w,
        }

    @staticmethod
    def _record_for(job: Job) -> JobRecord:
        return JobRecord(
            job_id=job.job_id,
            user_id=job.user_id,
            queue_name=job.queue_name,
            n_gpus=job.n_gpus,
            submit_time_h=job.submit_time_h,
            start_time_h=job.start_time_h,
            finish_time_h=job.finish_time_h,
            wait_time_h=job.wait_time_h(),
            baseline_duration_h=job.duration_h,
            actual_duration_h=job.actual_duration_h,
            power_cap_w=job.assigned_power_cap_w,
            energy_j=job.energy_j,
            completed=job.state is JobState.COMPLETED,
            had_deadline=job.deadline_h is not None,
            missed_deadline=job.missed_deadline(),
        )
