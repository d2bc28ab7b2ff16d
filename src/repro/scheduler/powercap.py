"""GPU power-cap control (the ``c`` lever of Eq. 1).

* :class:`AdaptivePowerCapController` — a facility-power-budget follower:
  when the cluster's projected IT power exceeds the budget it tightens caps
  on running jobs (largest consumers first); when there is headroom it
  relaxes them.  This is the control loop an operator would run against a
  demand-charge or a grid curtailment signal.  In the staged pipeline it is
  the ``adaptive`` token (:class:`~repro.scheduler.stages.AdaptiveCapStage`),
  which drives it through the simulator's lifecycle hooks.
* :func:`powercap_energy_tradeoff` computes the energy/time/savings curve for
  a sweep of cap levels, which is the CLAIM-POWERCAP benchmark's payload.

The static "optimal power caps" of the paper's Section II.C (a fixed cap with
an exemption for urgent jobs) are the ``cap`` token,
:class:`~repro.scheduler.stages.StaticCapStage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from ..errors import SchedulingError
from ..parallel.pool import ParallelConfig, map_parallel
from ..telemetry.gpu_power import GpuPowerModel, get_gpu_spec
from .job import Job

__all__ = ["AdaptivePowerCapController", "powercap_energy_tradeoff", "PowerCapSweepPoint"]


class AdaptivePowerCapController:
    """Adjusts per-job caps to keep cluster IT power under a budget.

    Parameters
    ----------
    power_budget_w:
        Target ceiling on IT power.
    min_cap_fraction:
        Tightest cap the controller will impose.
    step_fraction:
        Cap adjustment applied per control interval.
    """

    def __init__(
        self,
        power_budget_w: float,
        *,
        min_cap_fraction: float = 0.5,
        step_fraction: float = 0.05,
    ) -> None:
        if power_budget_w <= 0:
            raise SchedulingError("power_budget_w must be positive")
        if not 0.0 < min_cap_fraction <= 1.0:
            raise SchedulingError("min_cap_fraction must lie in (0, 1]")
        if not 0.0 < step_fraction <= 0.5:
            raise SchedulingError("step_fraction must lie in (0, 0.5]")
        self.power_budget_w = float(power_budget_w)
        self.min_cap_fraction = float(min_cap_fraction)
        self.step_fraction = float(step_fraction)
        self._current_caps: dict[str, float] = {}

    def seed_cap(self, job_id: str, cap_fraction: float) -> None:
        """Register a job's starting cap ahead of its first control step.

        Without seeding, :meth:`update` assumes unseen jobs start at the cap
        they *agreed* to (``job.power_cap_fraction`` or uncapped); a caller
        whose scheduler imposed a tighter cap at start (e.g. a pipeline power
        chain) seeds it here so the first control step relaxes from the real
        cap instead of silently resetting the job to uncapped.
        """
        if cap_fraction <= 0.0:
            raise SchedulingError(f"cap_fraction must be positive, got {cap_fraction!r}")
        self._current_caps.setdefault(job_id, min(1.0, float(cap_fraction)))

    def update(
        self,
        running_jobs: Sequence[Job],
        current_it_power_w: float,
    ) -> dict[str, float]:
        """One control step; returns the new cap fraction per running job id.

        When power exceeds the budget, caps are tightened on the largest
        GPU consumers first; when power is at least 10% under budget, caps
        are relaxed uniformly.  Jobs not seen before start at 1.0 (uncapped).
        """
        for job in running_jobs:
            self._current_caps.setdefault(job.job_id, job.power_cap_fraction or 1.0)
        # Drop caps of jobs that are gone.
        live_ids = {job.job_id for job in running_jobs}
        self._current_caps = {k: v for k, v in self._current_caps.items() if k in live_ids}

        if not running_jobs:
            return {}
        if current_it_power_w > self.power_budget_w:
            # Tighten the biggest consumers first.
            by_size = sorted(running_jobs, key=lambda j: j.n_gpus * j.utilization, reverse=True)
            overshoot = current_it_power_w / self.power_budget_w
            n_to_tighten = max(1, int(np.ceil(len(by_size) * min(1.0, overshoot - 1.0 + 0.25))))
            for job in by_size[:n_to_tighten]:
                new_cap = max(self.min_cap_fraction, self._current_caps[job.job_id] - self.step_fraction)
                self._current_caps[job.job_id] = new_cap
        elif current_it_power_w < 0.9 * self.power_budget_w:
            for job in running_jobs:
                new_cap = min(1.0, self._current_caps[job.job_id] + self.step_fraction)
                self._current_caps[job.job_id] = new_cap
        return dict(self._current_caps)


@dataclass(frozen=True)
class PowerCapSweepPoint:
    """One row of the power-cap sweep table (CLAIM-POWERCAP)."""

    cap_fraction: float
    cap_w: float
    relative_runtime: float
    relative_energy: float
    energy_savings_pct: float
    runtime_penalty_pct: float


def _evaluate_cap_fraction(
    fraction: float, *, gpu_model: str, utilization: float, baseline_energy: float
) -> PowerCapSweepPoint:
    """One cap level of the trade-off sweep (module-level, so it pickles)."""
    spec = get_gpu_spec(gpu_model)
    model = GpuPowerModel(spec)
    cap_w = float(model.clamp_power_limit(fraction * spec.tdp_w))
    slowdown = float(model.slowdown_factor(cap_w, utilization))
    energy = float(model.energy_for_work(1.0, utilization, cap_w))
    relative_energy = energy / baseline_energy
    return PowerCapSweepPoint(
        cap_fraction=float(fraction),
        cap_w=cap_w,
        relative_runtime=slowdown,
        relative_energy=relative_energy,
        energy_savings_pct=100.0 * (1.0 - relative_energy),
        runtime_penalty_pct=100.0 * (slowdown - 1.0),
    )


def powercap_energy_tradeoff(
    gpu_model: str = "V100",
    cap_fractions: Sequence[float] = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5),
    *,
    utilization: float = 0.95,
    parallel: Optional[ParallelConfig] = None,
) -> list[PowerCapSweepPoint]:
    """Energy/time trade-off of power caps for a fixed amount of training work.

    Reproduces the shape of the Frey et al. [15] result the paper leans on:
    moderate caps (70-80% of TDP) save 10-25% of energy at only a few percent
    runtime penalty, while very tight caps hit diminishing returns.  The cap
    levels are evaluated with :func:`~repro.parallel.pool.map_parallel`, so
    large custom sweeps can run across processes via ``parallel``; results
    are in ``cap_fractions`` order either way.
    """
    if not cap_fractions:
        return []
    for fraction in cap_fractions:
        if not 0.0 < fraction <= 1.0:
            raise SchedulingError(f"cap fractions must lie in (0, 1], got {fraction!r}")
    spec = get_gpu_spec(gpu_model)
    model = GpuPowerModel(spec)
    baseline_energy = float(model.energy_for_work(1.0, utilization, None))
    evaluate = partial(
        _evaluate_cap_fraction,
        gpu_model=gpu_model,
        utilization=utilization,
        baseline_energy=baseline_energy,
    )
    return map_parallel(evaluate, [float(f) for f in cap_fractions], parallel)
