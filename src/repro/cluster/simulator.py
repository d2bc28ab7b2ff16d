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
  it at a tick or scheduling round is O(1).  ``parity_check=True`` re-derives
  the value from the state arrays (the vectorized debug checkpoint) after
  every allocation change and raises on divergence.
* The hourly PUE curve is evaluated once, vectorized over the whole weather
  trace, at construction; per-round context lookups and the tick-series PUE
  are O(1) indexing into it rather than per-tick scalar ``np.asarray``
  round-trips.
* Scheduling happens after every batch of simultaneous events, so a finish
  and the start of the next job can occur at the same simulated instant.
  Started jobs are removed from the pending queue once per round (by id),
  not by rebuilding the queue per started job.
* Lifecycle hooks: :class:`~repro.cluster.observers.SimulatorObserver`\\ s
  receive ``on_job_start`` / ``on_job_finish`` / ``on_round`` / ``on_tick``
  callbacks, so adaptive controllers and telemetry live outside the loop.
  Observers are attached explicitly (``observers=`` / :meth:`ClusterSimulator.
  add_observer`) or implicitly by the scheduling policy via
  :meth:`~repro.scheduler.base.Scheduler.observers`.  Each hook site loops
  over the bound methods of the observers that override that hook, so with
  no observers it is an empty loop and the hot path is unchanged.
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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

import numpy as np

from ..config import FacilityConfig, require_positive
from ..errors import CheckpointError, SimulationError, SteppingError
from ..grid.iso_ne import IsoNeLikeGrid
from ..obs.recorder import get_recorder
from ..scheduler.base import ScheduleDecision, Scheduler, SchedulingContext
from ..scheduler.job import Job, JobState
from .cooling import CoolingModel
from .events import Event, EventQueue, EventType
from .observers import SimulatorObserver
from .resources import Cluster

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.observer import MetricsObserver

__all__ = [
    "SimulationConfig",
    "JobRecord",
    "SimulationResult",
    "SitePowerSummary",
    "SimulatorSnapshot",
    "SNAPSHOT_VERSION",
    "ClusterSimulator",
    "SimulatorObserver",
]

#: Version of the simulator snapshot payload format.  Bumped on any change to
#: the layout produced by :meth:`ClusterSimulator.snapshot`; restore refuses
#: payloads from a different version instead of mis-reading them.
SNAPSHOT_VERSION = 1


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
        waits = [r.wait_time_h for r in self.job_records if r.wait_time_h is not None]
        return float(np.mean(waits)) if waits else float("nan")

    @property
    def p95_wait_h(self) -> float:
        """95th-percentile queue wait among jobs that started."""
        waits = [r.wait_time_h for r in self.job_records if r.wait_time_h is not None]
        return float(np.percentile(waits, 95)) if waits else float("nan")

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of deadline-carrying jobs that missed (or never met) their deadline."""
        deadline_jobs = [r for r in self.job_records if r.had_deadline]
        if not deadline_jobs:
            return 0.0
        missed = sum(1 for r in deadline_jobs if r.missed_deadline or not r.completed)
        return missed / len(deadline_jobs)

    @property
    def energy_per_gpu_hour_kwh(self) -> float:
        """Facility energy per delivered baseline GPU-hour (lower is better)."""
        delivered = self.delivered_gpu_hours
        if delivered == 0:
            return float("nan")
        return self.facility_energy_kwh / delivered

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


@dataclass(frozen=True)
class SitePowerSummary:
    """One site's tick-aligned power accounting, from a single API.

    :meth:`ClusterSimulator.site_power_summary` builds this from the recorded
    tick series (mid-run or after :meth:`~ClusterSimulator.finalize`), so
    fleet routers, aggregators and reports read total IT + cooling power per
    tick here instead of recomputing PUE products from raw series.
    """

    tick_times_h: np.ndarray
    it_power_w: np.ndarray
    pue: np.ndarray
    facility_power_w: np.ndarray
    tick_h: float

    @property
    def cooling_power_w(self) -> np.ndarray:
        """Cooling / overhead power per tick (facility minus IT)."""
        return self.facility_power_w - self.it_power_w

    @property
    def it_energy_kwh(self) -> float:
        """Total IT energy over the recorded ticks in kWh."""
        return float(np.sum(self.it_power_w) * self.tick_h / 1e3)

    @property
    def facility_energy_kwh(self) -> float:
        """Total facility energy (IT + cooling) over the recorded ticks in kWh."""
        return float(np.sum(self.facility_power_w) * self.tick_h / 1e3)

    @property
    def cooling_energy_kwh(self) -> float:
        """Cooling / overhead energy over the recorded ticks in kWh."""
        return self.facility_energy_kwh - self.it_energy_kwh

    @property
    def peak_facility_power_w(self) -> float:
        """Largest facility power observed at any recorded tick."""
        if self.facility_power_w.size == 0:
            return 0.0
        return float(np.max(self.facility_power_w))


@dataclass(frozen=True)
class SimulatorSnapshot:
    """A versioned, JSON-able capture of a mid-run simulator's dynamic state.

    Produced by :meth:`ClusterSimulator.snapshot` and consumed by
    :meth:`ClusterSimulator.restore`.  The snapshot holds only *dynamic*
    state — the event queue, job table, pending/running sets, tick series,
    cluster allocations and observer state; the static substrates (weather,
    cooling, grid, scheduler) are rebuilt deterministically from the scenario
    spec by the caller, which keeps checkpoints small and lets the service
    share cached substrates across restored sessions.

    Restoring at hour H and advancing to the horizon is **bit-identical** to
    the uninterrupted run: accumulated floats (IT power totals) are stored
    verbatim rather than recomputed, job floats round-trip exactly through
    JSON, and event-queue tie-breaking sequence numbers are preserved.
    """

    version: int
    scheduler_name: str
    now_h: float
    state: dict

    def to_jsonable(self) -> dict:
        """A plain-dict form safe for ``json.dumps`` (and bit-exact back)."""
        return {
            "version": self.version,
            "scheduler_name": self.scheduler_name,
            "now_h": self.now_h,
            "state": self.state,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "SimulatorSnapshot":
        """Rebuild a snapshot from :meth:`to_jsonable` output, checking the version."""
        try:
            version = int(data["version"])
        except (KeyError, TypeError, ValueError):
            raise CheckpointError("snapshot payload has no usable 'version' field") from None
        if version != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"snapshot version {version} is not supported "
                f"(this build reads version {SNAPSHOT_VERSION})"
            )
        return cls(
            version=version,
            scheduler_name=data["scheduler_name"],
            now_h=float(data["now_h"]),
            state=data["state"],
        )


class ClusterSimulator:
    """Runs a job trace through a scheduling policy on a simulated cluster.

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
    parity_check:
        When true, cross-check the delta-maintained IT power against the
        vectorized full recompute after every allocation change (debug aid;
        raises :class:`~repro.errors.SimulationError` on divergence).
    observers:
        Lifecycle observers to attach; the scheduler's own
        :meth:`~repro.scheduler.base.Scheduler.observers` are appended
        automatically (pipeline stages such as adaptive power caps use this).
    recorder:
        Trace recorder for ``sim.begin``/``sim.advance``/``sim.finalize``
        spans; defaults to the ambient :func:`repro.obs.get_recorder`.  When
        the recorder is enabled a (checkpoint-transient)
        :class:`~repro.obs.observer.MetricsObserver` is attached
        automatically, publishing queue depth, IT power, GPU utilization and
        round/job counters into its metrics registry at the end of every
        :meth:`advance` and :meth:`finalize`; when disabled (the default)
        the observer list and the hot loop are untouched.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        config: SimulationConfig | None = None,
        *,
        weather_hourly_c: Optional[np.ndarray] = None,
        cooling: Optional[CoolingModel] = None,
        grid: Optional[IsoNeLikeGrid] = None,
        parity_check: bool = False,
        observers: Optional[Sequence[SimulatorObserver]] = None,
        recorder: Optional[Any] = None,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.config = config or SimulationConfig()
        self.cooling = cooling
        self.grid = grid
        self.parity_check = bool(parity_check)
        self._recorder = recorder if recorder is not None else get_recorder()
        self._observers: list[SimulatorObserver] = list(observers or ())
        self._observers.extend(scheduler.observers())
        self._metrics_observer: Optional[MetricsObserver] = None
        if self._recorder.enabled:
            # Imported lazily: repro.obs.observer subclasses SimulatorObserver,
            # so a module-level import would be circular.
            from ..obs.observer import MetricsObserver

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
        if self.cooling is not None:
            # One vectorized pass over the whole weather trace; every later
            # PUE lookup (context, tick series) indexes into this.
            self._pue_hourly: Optional[np.ndarray] = self.cooling.pue_series(
                self.weather_hourly_c
            )
        else:
            self._pue_hourly = None
        if grid is not None:
            if grid.hours.shape[0] < n_hours_needed:
                raise SimulationError(
                    "grid model horizon is shorter than the simulation horizon"
                )
            self._carbon_hourly = grid.carbon_intensity_g_per_kwh
            self._price_hourly = grid.price_per_mwh
            quantile = self.config.carbon_threshold_quantile
            horizon_slice = self._carbon_hourly[: n_hours_needed]
            self._carbon_threshold = float(np.quantile(horizon_slice, quantile))
            self._renewable_hourly = grid.renewable_share
        else:
            self._carbon_hourly = None
            self._price_hourly = None
            self._carbon_threshold = None
            self._renewable_hourly = None

        # Runtime state
        self._events = EventQueue()
        self._pending: list[Job] = []
        self._running: dict[str, Job] = {}
        self._all_jobs: list[Job] = []
        self._seen_ids: set[str] = set()
        self._current_it_power_w = self.cluster.it_power_w()
        self._begun = False
        self._finalized = False
        self._advanced_to = 0.0
        self._tick_times: list[float] = []
        self._tick_it_power: list[float] = []
        self._power_summary: Optional[SitePowerSummary] = None

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def add_observer(self, observer: SimulatorObserver) -> SimulatorObserver:
        """Attach a lifecycle observer (returned for chaining)."""
        self._observers.append(observer)
        self._bind_hooks()
        return observer

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

    def site_power_summary(self) -> SitePowerSummary:
        """Tick-aligned IT / cooling / facility power recorded so far.

        One API for per-site power accounting: valid mid-run (covering the
        ticks processed up to now) and after :meth:`finalize` (covering the
        whole horizon, returned from the finalize-time cache — the arrays are
        shared with the :class:`SimulationResult`, not recomputed).  Fleet
        aggregation and reports read this instead of recomputing PUE products
        from raw series.
        """
        if self._power_summary is not None:
            return self._power_summary
        tick_times = np.asarray(self._tick_times, dtype=float)
        it_power = np.asarray(self._tick_it_power, dtype=float)
        if self._pue_hourly is not None and tick_times.size:
            indices = np.minimum(
                np.maximum(tick_times, 0.0), self.config.horizon_h
            ).astype(int)
            pue = np.asarray(self._pue_hourly[indices], dtype=float)
        else:
            pue = np.ones_like(tick_times)
        return SitePowerSummary(
            tick_times_h=tick_times,
            it_power_w=it_power,
            pue=pue,
            facility_power_w=it_power * pue,
            tick_h=self.config.tick_h,
        )

    # ------------------------------------------------------------------
    # Power accounting
    # ------------------------------------------------------------------
    def refresh_it_power(self) -> None:
        """Pull the cluster's delta-maintained IT power (O(1) read).

        Observers that change allocation power caps must call this so the
        cached total reflects the change.  With ``parity_check`` enabled, the
        value is verified against the vectorized full recompute from the
        state arrays.
        """
        power = self.cluster.it_power_w()
        if self.parity_check:
            expected = self.cluster.recompute_it_power_w()
            if not np.isclose(power, expected, rtol=1e-9, atol=1e-6):
                raise SimulationError(
                    f"incremental IT power diverged from recompute: "
                    f"{power!r} vs {expected!r}"
                )
        self._current_it_power_w = power

    # Backwards-compatible private alias (pre-hook name).
    _refresh_it_power = refresh_it_power

    # ------------------------------------------------------------------
    # Context
    # ------------------------------------------------------------------
    def _hour_index(self, now_h: float) -> int:
        return int(min(max(now_h, 0.0), self.config.horizon_h))

    def _outdoor_temperature(self, now_h: float) -> Optional[float]:
        if self.weather_hourly_c is None:
            return None
        return float(self.weather_hourly_c[self._hour_index(now_h)])

    def _pue_at(self, now_h: float) -> float:
        if self._pue_hourly is None:
            return 1.0
        return float(self._pue_hourly[self._hour_index(now_h)])

    def _context(self, now_h: float) -> SchedulingContext:
        index = self._hour_index(now_h)
        return SchedulingContext(
            now_h=now_h,
            carbon_intensity_g_per_kwh=(
                float(self._carbon_hourly[index]) if self._carbon_hourly is not None else None
            ),
            carbon_intensity_threshold=self._carbon_threshold,
            price_per_mwh=(
                float(self._price_hourly[index]) if self._price_hourly is not None else None
            ),
            renewable_share=(
                float(self._renewable_hourly[index]) if self._renewable_hourly is not None else None
            ),
            outdoor_temperature_c=self._outdoor_temperature(now_h),
            facility_power_budget_w=self.config.facility_power_budget_w,
            current_it_power_w=self._current_it_power_w,
            current_pue=self._pue_at(now_h),
        )

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
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
        self.cluster.release(job.job_id)
        # Per-job attributed energy: its GPUs' power over the time it actually ran.
        model = self.cluster.gpu_power_model
        gpu_power = model.power_w_scalar(job.utilization, job.assigned_power_cap_w)
        start_h = job.start_time_h if job.start_time_h is not None else now_h
        elapsed_h = max(now_h - start_h, 0.0)
        energy_j = job.n_gpus * gpu_power * elapsed_h * 3600.0
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
        config = self.config
        while not self._events.is_empty():
            now_h = self._events.peek_time()
            if now_h is None or now_h > limit_h:
                break
            # Drain all events at this instant (finishes first, then submits, then ticks).
            allocations_changed = False
            tick_here = False
            while (not self._events.is_empty()) and abs(self._events.peek_time() - now_h) < 1e-9:
                event = self._events.pop()
                if event.event_type is EventType.JOB_FINISH:
                    self._finish_job(event.payload, now_h)
                    allocations_changed = True
                elif event.event_type is EventType.JOB_SUBMIT:
                    self._pending.append(event.payload)
                elif event.event_type is EventType.TICK:
                    tick_here = True
            if allocations_changed:
                self._refresh_it_power()

            # Scheduling round.
            if self._pending and self.cluster.n_free_gpus > 0:
                context = self._context(now_h)
                decisions = self.scheduler.select(list(self._pending), self.cluster, context)
                started_ids = set()
                for decision in decisions:
                    if decision.job.job_id in started_ids:
                        raise SimulationError(
                            f"scheduler {self.scheduler.name!r} returned job "
                            f"{decision.job.job_id!r} twice"
                        )
                    started_ids.add(decision.job.job_id)
                    self._start_job(decision, now_h)
                if decisions:
                    # One pass over the queue per round (not per started job).
                    self._pending = [j for j in self._pending if j.job_id not in started_ids]
                    self._refresh_it_power()
                for hook in self._round_hooks:
                    hook(self, now_h, context, decisions)

            if tick_here:
                self._tick_times.append(now_h)
                self._tick_it_power.append(self._current_it_power_w)
                # Measure, then actuate: control actions taken here show
                # up from the next tick on.
                for hook in self._tick_hooks:
                    hook(self, now_h, self._current_it_power_w)

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
        self._refresh_it_power()
        if self._metrics_observer is not None:
            self._metrics_observer.publish()

        # PUE over the whole tick series in one vectorized lookup (the hourly
        # curve was precomputed at construction).  The summary is cached: the
        # result and later site_power_summary() calls share the same arrays.
        power = self.site_power_summary()
        self._power_summary = power
        tick_times_arr = power.tick_times_h

        if self._carbon_hourly is not None:
            indices = np.clip(tick_times_arr.astype(int), 0, self._carbon_hourly.shape[0] - 1)
            carbon = self._carbon_hourly[indices]
            price = self._price_hourly[indices]
        else:
            carbon = None
            price = None

        records = [self._record_for(job) for job in self._all_jobs]
        return SimulationResult(
            scheduler_name=self.scheduler.name,
            config=config,
            tick_times_h=tick_times_arr,
            it_power_w=power.it_power_w,
            facility_power_w=power.facility_power_w,
            pue=power.pue,
            carbon_intensity_g_per_kwh=carbon,
            price_per_mwh=price,
            job_records=records,
        )

    def run(self, jobs: Sequence[Job]) -> SimulationResult:
        """Simulate the given job trace and return the run's results."""
        self.begin(jobs)
        return self.finalize()

    # ------------------------------------------------------------------
    # Snapshot / restore (checkpointing support)
    # ------------------------------------------------------------------
    def snapshot(self) -> SimulatorSnapshot:
        """Capture the run's full dynamic state as a :class:`SimulatorSnapshot`.

        Valid any time between :meth:`begin` and :meth:`finalize` (typically
        at an hour boundary after :meth:`advance` returns).  Restoring the
        snapshot onto a freshly constructed simulator with the same
        substrates, config and scheduling policy, then advancing to the
        horizon, yields job records bit-identical to the uninterrupted run.

        Events are stored with their payloads reduced to job ids (the job
        table carries the objects); observers contribute their own state via
        :meth:`~repro.cluster.observers.SimulatorObserver.snapshot_state`.
        """
        if not self._begun:
            raise SteppingError("snapshot() before begin(): there is no run to capture")
        if self._finalized:
            raise SteppingError("snapshot() after finalize(): the run is already over")
        events = []
        for event in self._events.pending_events():
            payload = event.payload
            if event.event_type is EventType.JOB_SUBMIT:
                payload = payload.job_id
            elif payload is not None and not isinstance(payload, str):
                raise CheckpointError(
                    f"cannot snapshot {event.event_type.name} event with non-string "
                    f"payload {payload!r}"
                )
            events.append(
                [event.time_h, int(event.event_type), event.sequence, payload]
            )
        config = self.config
        state = {
            "config": {
                "horizon_h": config.horizon_h,
                "tick_h": config.tick_h,
                "facility_power_budget_w": config.facility_power_budget_w,
                "carbon_threshold_quantile": config.carbon_threshold_quantile,
            },
            "now_h": self._events.now_h,
            "advanced_to": self._advanced_to,
            "next_sequence": self._events.next_sequence,
            "events": events,
            "jobs": [job.to_snapshot() for job in self._all_jobs],
            "pending": [job.job_id for job in self._pending],
            "running": list(self._running),
            "tick_times": list(self._tick_times),
            "tick_it_power": list(self._tick_it_power),
            "current_it_power_w": self._current_it_power_w,
            "cluster": self.cluster.snapshot_state(),
            # Transient observers (pure telemetry, e.g. tracing-mode metrics)
            # are invisible to checkpoints, so snapshots restore cleanly
            # whether or not tracing is enabled on the restoring side.
            "observers": [
                observer.snapshot_state()
                for observer in self._observers
                if not observer.transient
            ],
        }
        return SimulatorSnapshot(
            version=SNAPSHOT_VERSION,
            scheduler_name=self.scheduler.name,
            now_h=self._events.now_h,
            state=state,
        )

    def restore(self, snapshot: SimulatorSnapshot) -> None:
        """Adopt a snapshot's dynamic state on this freshly constructed simulator.

        The simulator must have been built with the same substrates (weather,
        cooling, grid), configuration and scheduling policy as the one that
        produced the snapshot, and must not have :meth:`begin`\\ -ed yet —
        :meth:`restore` *is* its begin.  After restoring, continue with
        :meth:`submit`/:meth:`advance`/:meth:`finalize` as usual.
        """
        if self._begun:
            raise SteppingError(
                "restore() on a simulator that already began a run; "
                "construct a fresh simulator to restore into"
            )
        if snapshot.version != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"snapshot version {snapshot.version} is not supported "
                f"(this build reads version {SNAPSHOT_VERSION})"
            )
        if snapshot.scheduler_name != self.scheduler.name:
            raise CheckpointError(
                f"scheduler mismatch: snapshot was taken under "
                f"{snapshot.scheduler_name!r}, this simulator runs {self.scheduler.name!r}"
            )
        state = snapshot.state
        config = self.config
        saved = state["config"]
        for field_name in (
            "horizon_h",
            "tick_h",
            "facility_power_budget_w",
            "carbon_threshold_quantile",
        ):
            if getattr(config, field_name) != saved[field_name]:
                raise CheckpointError(
                    f"config mismatch on {field_name!r}: snapshot has "
                    f"{saved[field_name]!r}, simulator has {getattr(config, field_name)!r}"
                )
        observer_states = state["observers"]
        durable_observers = [obs for obs in self._observers if not obs.transient]
        if len(observer_states) != len(durable_observers):
            raise CheckpointError(
                f"observer count mismatch: snapshot carries {len(observer_states)} "
                f"observer states, simulator has {len(durable_observers)} "
                f"checkpointed observers"
            )

        jobs_by_id: dict[str, Job] = {}
        all_jobs: list[Job] = []
        for data in state["jobs"]:
            job = Job.from_snapshot(data)
            jobs_by_id[job.job_id] = job
            all_jobs.append(job)
        events: list[Event] = []
        for time_h, type_value, sequence, payload in state["events"]:
            event_type = EventType(type_value)
            if event_type is EventType.JOB_SUBMIT:
                payload = jobs_by_id[payload]
            events.append(
                Event(
                    time_h=float(time_h),
                    priority=int(event_type),
                    sequence=int(sequence),
                    event_type=event_type,
                    payload=payload,
                )
            )

        self.cluster.restore_state(state["cluster"])
        self._events.restore(events, float(state["now_h"]), int(state["next_sequence"]))
        self._all_jobs = all_jobs
        self._seen_ids = set(jobs_by_id)
        self._pending = [jobs_by_id[job_id] for job_id in state["pending"]]
        self._running = {job_id: jobs_by_id[job_id] for job_id in state["running"]}
        self._tick_times = [float(t) for t in state["tick_times"]]
        self._tick_it_power = [float(p) for p in state["tick_it_power"]]
        self._current_it_power_w = float(state["current_it_power_w"])
        self._advanced_to = float(state["advanced_to"])
        self._begun = True
        self._finalized = False
        self._power_summary = None
        for observer, observer_state in zip(durable_observers, observer_states):
            observer.restore_state(observer_state)

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
