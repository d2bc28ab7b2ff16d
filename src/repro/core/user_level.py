"""The Eq. 2 per-user decomposition.

Eq. 2 of the paper rewrites the facility-level problem user by user:

    min_i  e_i(q_d(i), q_s, p, c, ε)   s.t.   a_i(·) ≥ α_i  for every user i,
    with   Σ_i e_i = E   and   Σ_i a_i = A.

The practical content is an *accounting identity*: facility energy and
activity must be attributable to individual users (or representative
workload profiles) before user-targeted mechanisms can be designed or
evaluated.  :func:`per_user_decomposition` performs that attribution over a
:class:`~repro.cluster.simulator.SimulationResult` — each user's IT energy is
what their jobs' GPUs drew, and facility overhead is allocated pro-rata to IT
energy — and verifies the Σ e_i = E identity up to the idle-power remainder
(energy burned by idle hardware, which belongs to no user and is exactly the
waste that supply-side levers target).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..cluster.simulator import SimulationResult, energy_per_gpu_hour, mean_wait
from ..errors import OptimizationError

__all__ = ["UserProfile", "UserLevelAccounting", "per_user_decomposition"]


@dataclass(frozen=True)
class UserProfile:
    """Per-user (or per-representative-workload) accounting record.

    Attributes
    ----------
    user_id:
        The user this row describes.
    it_energy_kwh:
        IT energy attributed to the user's jobs.
    facility_energy_kwh:
        IT energy plus the user's pro-rata share of facility overhead.
    gpu_hours:
        GPU-hours consumed by the user's jobs (actual, cap-stretched durations).
    delivered_gpu_hours:
        Baseline GPU-hours of completed work (the user's activity ``a_i``).
    n_jobs / completed_jobs:
        Submitted and completed job counts.
    mean_wait_h:
        Mean queue wait of the user's started jobs.
    """

    user_id: str
    it_energy_kwh: float
    facility_energy_kwh: float
    gpu_hours: float
    delivered_gpu_hours: float
    n_jobs: int
    completed_jobs: int
    mean_wait_h: float

    @property
    def energy_per_gpu_hour_kwh(self) -> float:
        """Facility energy per delivered GPU-hour for this user."""
        return energy_per_gpu_hour(self.facility_energy_kwh, self.delivered_gpu_hours)


@dataclass(frozen=True)
class UserLevelAccounting:
    """The full Eq. 2 decomposition of one simulation run."""

    profiles: Mapping[str, UserProfile]
    total_facility_energy_kwh: float
    attributed_energy_kwh: float
    idle_overhead_kwh: float

    @property
    def n_users(self) -> int:
        """Number of distinct users."""
        return len(self.profiles)

    @property
    def attribution_fraction(self) -> float:
        """Fraction of facility energy attributable to user jobs (rest is idle waste)."""
        if self.total_facility_energy_kwh == 0:
            return 0.0
        return self.attributed_energy_kwh / self.total_facility_energy_kwh

    def heaviest_users(self, n: int = 5) -> list[UserProfile]:
        """The ``n`` users with the largest attributed facility energy."""
        ranked = sorted(self.profiles.values(), key=lambda p: p.facility_energy_kwh, reverse=True)
        return ranked[: max(0, n)]

    def energy_concentration(self, top_fraction: float = 0.2) -> float:
        """Share of attributed energy consumed by the top ``top_fraction`` of users.

        The usual heavy-tail picture (a small set of users drives most of the
        energy) is what makes user-targeted mechanisms worthwhile.
        """
        if not 0.0 < top_fraction <= 1.0:
            raise OptimizationError("top_fraction must lie in (0, 1]")
        energies = np.sort([p.facility_energy_kwh for p in self.profiles.values()])[::-1]
        if energies.sum() == 0:
            return 0.0
        k = max(1, int(round(top_fraction * energies.size)))
        return float(energies[:k].sum() / energies.sum())

    def verify_identity(self, tolerance: float = 1e-6) -> bool:
        """Check Σ_i e_i + idle overhead == E (the Eq. 2 summation constraint)."""
        lhs = self.attributed_energy_kwh + self.idle_overhead_kwh
        return abs(lhs - self.total_facility_energy_kwh) <= tolerance * max(
            1.0, self.total_facility_energy_kwh
        )


def per_user_decomposition(result: SimulationResult) -> UserLevelAccounting:
    """Attribute a simulation result's energy and activity to its users."""
    records_by_user: dict[str, list] = {}
    for record in result.job_records:
        records_by_user.setdefault(record.user_id, []).append(record)
    if not records_by_user:
        raise OptimizationError("simulation result contains no job records to decompose")

    total_facility = result.facility_energy_kwh
    total_it_attributed = sum(r.energy_j for r in result.job_records) / 3.6e6
    # Facility overhead (cooling etc.) is allocated pro-rata to attributed IT energy.
    overhead_total = max(total_facility - result.it_energy_kwh, 0.0)

    profiles: dict[str, UserProfile] = {}
    for user_id, records in records_by_user.items():
        it_kwh = sum(r.energy_j for r in records) / 3.6e6
        share = it_kwh / total_it_attributed if total_it_attributed > 0 else 0.0
        facility_kwh = it_kwh + share * overhead_total
        profiles[user_id] = UserProfile(
            user_id=user_id,
            it_energy_kwh=it_kwh,
            facility_energy_kwh=facility_kwh,
            gpu_hours=sum(r.n_gpus * (r.actual_duration_h or 0.0) for r in records),
            delivered_gpu_hours=sum(
                r.n_gpus * r.baseline_duration_h for r in records if r.completed
            ),
            n_jobs=len(records),
            completed_jobs=sum(1 for r in records if r.completed),
            mean_wait_h=mean_wait(records),
        )

    attributed = sum(p.facility_energy_kwh for p in profiles.values())
    idle_overhead = max(total_facility - attributed, 0.0)
    return UserLevelAccounting(
        profiles=profiles,
        total_facility_energy_kwh=total_facility,
        attributed_energy_kwh=attributed,
        idle_overhead_kwh=idle_overhead,
    )
