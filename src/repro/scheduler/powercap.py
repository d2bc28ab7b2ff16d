"""The energy/time trade-off of GPU power caps (the ``c`` lever of Eq. 1).

:func:`powercap_energy_tradeoff` computes the energy/time/savings curve for
a sweep of cap levels, which is the CLAIM-POWERCAP benchmark's payload.

The caps a simulated cluster runs under are pipeline power stages in
:mod:`~repro.scheduler.stages`: the static "optimal power caps" of the
paper's Section II.C (a fixed cap with an exemption for urgent jobs) are the
``cap`` token, :class:`~repro.scheduler.stages.StaticCapStage`, and the
facility-power-budget follower that re-caps running jobs is the ``adaptive``
token, :class:`~repro.scheduler.stages.AdaptiveCapStage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import SchedulingError
from ..telemetry.gpu_power import GpuPowerModel, get_gpu_spec

__all__ = ["powercap_energy_tradeoff", "PowerCapSweepPoint"]


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
    fraction: float, model: GpuPowerModel, *, utilization: float, baseline_energy: float
) -> PowerCapSweepPoint:
    """One cap level of the trade-off sweep."""
    cap_w = float(model.clamp_power_limit(fraction * model.spec.tdp_w))
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
) -> list[PowerCapSweepPoint]:
    """Energy/time trade-off of power caps for a fixed amount of training work.

    Reproduces the shape of the Frey et al. [15] result the paper leans on:
    moderate caps (70-80% of TDP) save 10-25% of energy at only a few percent
    runtime penalty, while very tight caps hit diminishing returns.  Points
    come back in ``cap_fractions`` order.
    """
    if not cap_fractions:
        return []
    for fraction in cap_fractions:
        if not 0.0 < fraction <= 1.0:
            raise SchedulingError(f"cap fractions must lie in (0, 1], got {fraction!r}")
    model = GpuPowerModel(get_gpu_spec(gpu_model))
    baseline_energy = float(model.energy_for_work(1.0, utilization, None))
    return [
        _evaluate_cap_fraction(
            float(fraction), model, utilization=utilization, baseline_energy=baseline_energy
        )
        for fraction in cap_fractions
    ]
