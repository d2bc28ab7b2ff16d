"""The datacenter-level (Eq. 1) optimizer.

Searches a set of :class:`~repro.core.levers.OperatingPoint` candidates by
running each through the cluster simulator on the *same* job trace, weather
and grid, then picks the feasible point (activity floor satisfied) with the
smallest objective.  The search is exhaustive over the supplied grid — the
lever space the paper describes is small and partly categorical, so a grid is
both simpler and more transparent than continuous optimization, and every
evaluated point is kept so benchmarks can show the whole frontier (including
the infeasible points that "cheat" on the activity constraint, which is the
paper's warning about perverse effects).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence

from ..cluster.simulator import SimulationConfig, SimulationResult
from ..errors import OptimizationError
from ..parallel.pool import ParallelConfig, map_parallel
from ..scheduler.job import Job
from .levers import (
    OperatingPoint,
    SubstrateSource,
    Substrates,
    build_simulator,
    default_operating_grid,
)
from .objective import ActivityConstraint, EnergyObjective, ObjectiveEvaluation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.spec import ScenarioSpec

__all__ = ["EvaluatedPoint", "OptimizationOutcome", "DatacenterOptimizer"]


@dataclass(frozen=True)
class EvaluatedPoint:
    """One operating point with its simulation outcome and objective values."""

    point: OperatingPoint
    evaluation: ObjectiveEvaluation
    result: SimulationResult


@dataclass(frozen=True)
class OptimizationOutcome:
    """Everything the Eq. 1 search produced."""

    evaluated: tuple[EvaluatedPoint, ...]
    best: Optional[EvaluatedPoint]
    baseline: Optional[EvaluatedPoint]

    @property
    def feasible_points(self) -> list[EvaluatedPoint]:
        """Evaluated points that satisfy the activity constraint."""
        return [e for e in self.evaluated if e.evaluation.feasible]

    def savings_vs_baseline(self) -> float:
        """Fractional objective reduction of the best point vs. the baseline point.

        Returns 0 when either is missing or the baseline objective is zero.
        """
        if self.best is None or self.baseline is None:
            return 0.0
        base = self.baseline.evaluation.objective_value
        if base == 0:
            return 0.0
        return 1.0 - self.best.evaluation.objective_value / base

    def frontier_records(self) -> list[dict[str, float | str | bool]]:
        """Flat records (one per evaluated point) for tables."""
        records = []
        for e in self.evaluated:
            records.append(
                {
                    "operating_point": e.point.label(),
                    "objective": e.evaluation.objective_value,
                    "activity": e.evaluation.activity_value,
                    "feasible": e.evaluation.feasible,
                    "facility_energy_kwh": e.result.facility_energy_kwh,
                    "emissions_kg": e.result.total_emissions_kg,
                    "mean_wait_h": e.result.mean_wait_h,
                }
            )
        return records


class DatacenterOptimizer:
    """Exhaustive Eq. 1 search over operating points on a fixed workload.

    Parameters
    ----------
    spec:
        The scenario whose facility and GPU model every evaluation builds a
        fresh cluster from.
    substrates:
        The environment (``ε``) shared by every evaluation: anything with
        ``weather_hourly_c`` and ``grid``, such as the scenario built from
        ``spec``.  Only those two are kept, so a process pool ships them and
        not the whole scenario.
    objective / constraint:
        The ``E(·)`` to minimise and the ``A(·) ≥ α`` floor.
    simulation_config:
        Horizon/tick parameters shared by every evaluation.
    baseline_point:
        The operating point treated as the status quo (default: uncapped
        backfill at full supply); savings are reported against it.
    """

    def __init__(
        self,
        spec: "ScenarioSpec",
        substrates: SubstrateSource,
        objective: EnergyObjective,
        constraint: ActivityConstraint,
        *,
        simulation_config: SimulationConfig | None = None,
        baseline_point: OperatingPoint | None = None,
    ) -> None:
        self.spec = spec
        self.substrates = Substrates(substrates.weather_hourly_c, substrates.grid)
        self.objective = objective
        self.constraint = constraint
        self.simulation_config = simulation_config or SimulationConfig()
        self.baseline_point = baseline_point or OperatingPoint(
            supply_fraction=1.0, policy_name="backfill", power_cap_fraction=None
        )

    # ------------------------------------------------------------------
    # Single-point evaluation
    # ------------------------------------------------------------------
    def evaluate_point(self, point: OperatingPoint, jobs: Sequence[Job]) -> EvaluatedPoint:
        """Run the workload under one operating point and score it."""
        config = self.simulation_config
        if point.facility_power_budget_w is not None:
            config = replace(config, facility_power_budget_w=point.facility_power_budget_w)
        simulator = build_simulator(
            self.spec,
            self.substrates,
            point.policy_name,
            config,
            power_cap_fraction=point.power_cap_fraction,
            supply_fraction=point.supply_fraction,
        )
        result = simulator.run([job.clone_pending() for job in jobs])
        evaluation = ObjectiveEvaluation.from_result(result, self.objective, self.constraint)
        return EvaluatedPoint(point=point, evaluation=evaluation, result=result)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def optimize(
        self,
        jobs: Sequence[Job],
        points: Sequence[OperatingPoint] | None = None,
        *,
        parallel: Optional[ParallelConfig] = None,
    ) -> OptimizationOutcome:
        """Evaluate every candidate point and pick the best feasible one.

        The grid search runs through the campaign layer's process-pool
        mapping: point evaluations are independent (each builds its own
        cluster and simulator on a cloned trace), so a multi-worker
        ``parallel`` configuration fans them out across processes while the
        evaluated order — and therefore the selected optimum, ties included —
        stays identical to a serial run.
        """
        if not jobs:
            raise OptimizationError("optimize() requires a non-empty job trace")
        candidates = list(points) if points is not None else default_operating_grid()
        if not candidates:
            raise OptimizationError("optimize() requires at least one operating point")
        to_evaluate = list(candidates)
        if self.baseline_point not in to_evaluate:
            to_evaluate.append(self.baseline_point)
        evaluated = map_parallel(partial(self.evaluate_point, jobs=jobs), to_evaluate, parallel)
        baseline_eval = next(e for e in evaluated if e.point == self.baseline_point)
        feasible = [e for e in evaluated if e.evaluation.feasible]
        best = min(feasible, key=lambda e: e.evaluation.objective_value) if feasible else None
        return OptimizationOutcome(evaluated=tuple(evaluated), best=best, baseline=baseline_eval)
