"""The composable experiment session.

An :class:`ExperimentSession` binds a :class:`~repro.experiments.spec.
ScenarioSpec` to the expensive simulation substrates built from it (weather,
facility load trace, grid series — the :class:`~repro.analysis.figures.
SuperCloudScenario` bundle) and runs registered experiments against them.

Substrates are built **once per spec** and cached on the session, keyed by the
(hashable) spec itself, so running every paper analysis back to back pays the
construction cost a single time — previously each CLI command re-ran
``SuperCloudScenario.build`` from scratch.  Job-level traces are cached the
same way.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from ..analysis.figures import SuperCloudScenario
from ..cluster.simulator import SimulationConfig, SimulationResult
from ..core.levers import OperatingPoint, build_simulator
from ..core.objective import ActivityConstraint, ActivityKind, EnergyObjective, ObjectiveKind
from ..core.optimizer import DatacenterOptimizer, OptimizationOutcome
from ..grid.iso_ne import IsoNeLikeGrid
from ..parallel.pool import ParallelConfig
from ..scheduler.job import Job
from ..timeutils import SimulationCalendar
from ..workloads.demand import DeadlineDemandModel
from ..workloads.supercloud import SuperCloudTraceGenerator
from .registry import get_experiment
from .result import ExperimentResult
from .spec import ScenarioSpec, get_scenario

__all__ = ["ExperimentSession"]


class ExperimentSession:
    """Builds a scenario's substrates once and runs experiments against them.

    Parameters
    ----------
    spec:
        The scenario to run in — a :class:`ScenarioSpec`, the name of a
        registered scenario, or ``None`` for the default scenario.
    parallel:
        Worker processes the ``fleet`` experiment steps its member sites on;
        serial by default.  The CLI plumbs ``--workers`` /
        ``GREENHPC_WORKERS`` into this.  Campaign points build their
        sessions without it, so a campaign fans out only across its points.
    **overrides:
        Spec fields to replace on top of ``spec`` (e.g. ``seed=7``,
        ``n_months=12``).

    Examples
    --------
    >>> session = ExperimentSession("single-year", seed=3)
    >>> result = session.run("figures")
    >>> session.scenario() is session.scenario()   # built exactly once
    True
    """

    def __init__(
        self,
        spec: Union[ScenarioSpec, str, None] = None,
        *,
        parallel: Optional[ParallelConfig] = None,
        **overrides: Any,
    ) -> None:
        if spec is None:
            spec = get_scenario("default")
        elif isinstance(spec, str):
            spec = get_scenario(spec)
        if overrides:
            spec = spec.replace(**overrides)
        self._spec: ScenarioSpec = spec
        #: Worker processes for the ``fleet`` experiment's site stepping.
        self.parallel: ParallelConfig = parallel or ParallelConfig()
        self._scenarios: dict[ScenarioSpec, SuperCloudScenario] = {}
        self._job_traces: dict[tuple[ScenarioSpec, int, float], list[Job]] = {}
        #: Number of scenario substrate builds performed (cache misses).
        self.scenario_builds: int = 0
        # Build-once guard: concurrent daemon sessions share one session per
        # distinct spec, so cache fills must be serialized (reentrant — a
        # build may consult the cache again through nested calls).
        self._cache_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Spec and substrates
    # ------------------------------------------------------------------
    @property
    def spec(self) -> ScenarioSpec:
        """The session's scenario specification."""
        return self._spec

    @property
    def calendar(self) -> SimulationCalendar:
        """The simulation calendar of the session's spec."""
        return self.scenario().calendar

    def scenario(self, spec: Optional[ScenarioSpec] = None) -> SuperCloudScenario:
        """The built substrate bundle for ``spec`` (default: the session spec).

        Identical specs return the identical cached object, which is what
        makes multi-analysis runs cheap: weather, load trace and grid are
        derived once and shared by every experiment.
        """
        spec = spec or self._spec
        scenario = self._scenarios.get(spec)
        if scenario is None:
            with self._cache_lock:
                scenario = self._scenarios.get(spec)
                if scenario is None:  # double-checked: lost the race = reuse
                    scenario = SuperCloudScenario.build(
                        seed=spec.seed,
                        start_year=spec.start_year,
                        n_months=spec.n_months,
                        site=spec.site,
                        trace_config=spec.trace_config(),
                        fuel_config=spec.grid.fuel,
                        price_config=spec.grid.price,
                    )
                    self._scenarios[spec] = scenario
                    self.scenario_builds += 1
        return scenario

    @property
    def grid(self) -> IsoNeLikeGrid:
        """The grid model behind the session's scenario."""
        return self.scenario().grid

    def hourly_facility_load_kwh(self) -> np.ndarray:
        """The facility's hourly energy profile in kWh (1-hour steps)."""
        return self.scenario().load_trace.facility_power_w / 1e3

    def job_trace(
        self,
        *,
        n_jobs: int = 300,
        horizon_h: float = 7 * 24.0,
        spec: Optional[ScenarioSpec] = None,
    ) -> list[Job]:
        """A SuperCloud-like job-level trace (cached per ``(spec, n_jobs, horizon)``).

        ``spec`` defaults to the session spec; the fleet co-simulator passes
        a member spec here so its shared workload is generated (and cached)
        exactly as a single-site session over that member would.
        """
        spec = spec or self._spec
        key = (spec, int(n_jobs), float(horizon_h))
        trace = self._job_traces.get(key)
        if trace is None:
            with self._cache_lock:
                trace = self._job_traces.get(key)
                if trace is None:
                    generator = SuperCloudTraceGenerator(
                        spec.trace_config(),
                        demand_model=DeadlineDemandModel(seed=spec.seed),
                        seed=spec.seed,
                    )
                    trace = generator.generate_jobs(n_jobs=n_jobs, horizon_h=horizon_h)
                    self._job_traces[key] = trace
        return trace

    # ------------------------------------------------------------------
    # Single-policy simulation on a job trace
    # ------------------------------------------------------------------
    def simulate_policy(
        self,
        policy: str,
        *,
        n_jobs: int = 300,
        horizon_h: float = 7 * 24.0,
        power_cap_fraction: Optional[float] = None,
        facility_power_budget_w: Optional[float] = None,
    ) -> SimulationResult:
        """Run one scheduling policy end-to-end over this session's substrates.

        ``policy`` is a registered policy name or a pipeline spec string in
        the :mod:`~repro.scheduler.compose` grammar (e.g.
        ``"backfill+carbon(cap=0.7)+budget"``), which is what lets campaign
        grids sweep composed pipelines directly.  The cached job trace,
        weather, cooling and grid substrates are shared with every other
        experiment of the session.
        """
        simulator = build_simulator(
            self._spec,
            self.scenario(),
            policy,
            SimulationConfig(horizon_h=horizon_h, facility_power_budget_w=facility_power_budget_w),
            power_cap_fraction=power_cap_fraction,
        )
        trace = self.job_trace(n_jobs=n_jobs, horizon_h=horizon_h)
        return simulator.run([job.clone_pending() for job in trace])

    # ------------------------------------------------------------------
    # Eq. 1 — operations optimization on a job trace
    # ------------------------------------------------------------------
    def optimize_operations(
        self,
        jobs: Optional[Sequence[Job]] = None,
        *,
        n_jobs: int = 300,
        horizon_h: float = 7 * 24.0,
        activity_floor_fraction: float = 0.9,
        points: Optional[Sequence[OperatingPoint]] = None,
        objective_kind: ObjectiveKind = ObjectiveKind.FACILITY_ENERGY_KWH,
    ) -> OptimizationOutcome:
        """Run the Eq. 1 search on a job trace over this session's substrates.

        ``activity_floor_fraction`` sets α as a fraction of the baseline
        (uncapped backfill) delivered GPU-hours, which is how an operator
        would phrase "no more than a 10% hit to throughput".
        """
        trace = list(jobs) if jobs is not None else self.job_trace(n_jobs=n_jobs, horizon_h=horizon_h)
        simulation_config = SimulationConfig(horizon_h=horizon_h, tick_h=1.0)

        def make_optimizer(alpha: float, baseline_point: Optional[OperatingPoint]) -> DatacenterOptimizer:
            return DatacenterOptimizer(
                self._spec,
                self.scenario(),
                EnergyObjective(kind=objective_kind),
                ActivityConstraint(kind=ActivityKind.DELIVERED_GPU_HOURS, alpha=alpha),
                simulation_config=simulation_config,
                baseline_point=baseline_point,
            )

        # Baseline run to set alpha.
        baseline_point = OperatingPoint(policy_name="backfill")
        baseline_result = make_optimizer(0.0, None).evaluate_point(baseline_point, trace)
        alpha = activity_floor_fraction * baseline_result.result.delivered_gpu_hours
        return make_optimizer(alpha, baseline_point).optimize(trace, points=points)

    # ------------------------------------------------------------------
    # Running experiments
    # ------------------------------------------------------------------
    def run(self, name: str, **params: Any) -> ExperimentResult:
        """Run the registered experiment ``name`` with ``params`` overrides."""
        return get_experiment(name).run(self, **params)

    def run_many(
        self,
        names: Iterable[str],
        params_by_name: Optional[Mapping[str, Mapping[str, Any]]] = None,
    ) -> dict[str, ExperimentResult]:
        """Run several experiments back to back over the shared substrates."""
        params_by_name = params_by_name or {}
        return {name: self.run(name, **dict(params_by_name.get(name, {}))) for name in names}
