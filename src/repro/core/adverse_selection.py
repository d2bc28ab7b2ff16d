"""Adverse selection in self-characterised queues (Section II.C).

The paper warns that queue segmentation based on *stated* preferences invites
adverse selection: "users mis-characterize their preferences and select
themselves into queues where resources are fastest, most plentiful, or the
most available, leaving select queues clogged and overtaxed and others
largely, if not entirely, idle."

The study here makes that failure mode measurable.  A population of users with
private urgency submits jobs to the three-queue menu of
:class:`~repro.scheduler.queue.SegmentedQueueSystem` under three behavioural
regimes:

* ``truthful`` — users pick the queue matching their true urgency;
* ``strategic`` — a configurable fraction of non-urgent users mis-report into
  the urgent queue because it is faster (the adverse-selection regime);
* ``two-part`` — queue choice only controls the cap/GPU trade (the
  :class:`~repro.core.mechanism.TwoPartMechanism` style), so mis-reporting
  urgency buys nothing; users revert to truthful choices.

For each regime the study reports queue imbalance, the urgent queue's
congestion, and the wait-time penalty suffered by genuinely urgent users —
the quantities that show why the naive design breaks and the two-part design
does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import MechanismError
from ..rng import SeedLike, make_rng
from ..scheduler.job import Job
from ..scheduler.queue import SegmentedQueueSystem

__all__ = ["SyntheticUser", "QueueChoiceOutcome", "AdverseSelectionStudy"]


@dataclass(frozen=True)
class SyntheticUser:
    """A user with a private urgency level and a job to submit."""

    user_id: str
    truly_urgent: bool
    n_gpus: int
    duration_h: float

    def __post_init__(self) -> None:
        if self.n_gpus <= 0 or self.duration_h <= 0:
            raise MechanismError("n_gpus and duration_h must be positive")


@dataclass(frozen=True)
class QueueChoiceOutcome:
    """Aggregate outcome of one behavioural regime."""

    regime: str
    queue_lengths: dict[str, int]
    queue_gpu_demand: dict[str, int]
    imbalance: float
    urgent_queue_congestion: float
    misreport_rate: float
    expected_urgent_wait_penalty_h: float


class AdverseSelectionStudy:
    """Simulates queue self-selection under different behavioural regimes.

    Parameters
    ----------
    urgent_fraction:
        Fraction of the population whose jobs are genuinely urgent.
    strategic_fraction:
        Fraction of non-urgent users who mis-report as urgent in the
        ``strategic`` regime.
    urgent_queue_service_rate_gpu_h:
        GPU-hours per hour the urgent queue's reserved capacity can absorb;
        used to convert queue load into an expected-wait estimate.
    """

    def __init__(
        self,
        *,
        urgent_fraction: float = 0.2,
        strategic_fraction: float = 0.6,
        urgent_queue_service_rate_gpu_h: float = 32.0,
        seed: SeedLike = None,
    ) -> None:
        if not 0.0 <= urgent_fraction <= 1.0:
            raise MechanismError("urgent_fraction must lie in [0, 1]")
        if not 0.0 <= strategic_fraction <= 1.0:
            raise MechanismError("strategic_fraction must lie in [0, 1]")
        if urgent_queue_service_rate_gpu_h <= 0:
            raise MechanismError("urgent_queue_service_rate_gpu_h must be positive")
        self.urgent_fraction = urgent_fraction
        self.strategic_fraction = strategic_fraction
        self.urgent_queue_service_rate_gpu_h = urgent_queue_service_rate_gpu_h
        self._rng = make_rng(seed, "adverse-selection")

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def synthetic_population(self, n_users: int) -> list[SyntheticUser]:
        """Generate a population with the configured urgency mix."""
        if n_users <= 0:
            raise MechanismError("n_users must be positive")
        rng = self._rng
        users = []
        for i in range(n_users):
            urgent = bool(rng.uniform() < self.urgent_fraction)
            n_gpus = int(rng.choice([1, 2, 4], p=[0.5, 0.3, 0.2])) if urgent else int(
                rng.choice([1, 2, 4, 8, 16], p=[0.3, 0.25, 0.2, 0.15, 0.1])
            )
            duration = float(np.clip(rng.lognormal(np.log(1.0 if urgent else 4.0), 0.8), 0.1, 72.0))
            users.append(
                SyntheticUser(
                    user_id=f"user-{i:04d}", truly_urgent=urgent, n_gpus=n_gpus, duration_h=duration
                )
            )
        return users

    # ------------------------------------------------------------------
    # Queue-choice regimes
    # ------------------------------------------------------------------
    def _declared_queue(self, user: SyntheticUser, regime: str) -> tuple[str, bool]:
        """(preferred queue, whether the declaration is a mis-report)."""
        if regime == "truthful" or regime == "two-part":
            return ("urgent" if user.truly_urgent else "standard"), False
        if regime == "strategic":
            if user.truly_urgent:
                return "urgent", False
            misreports = self._rng.uniform() < self.strategic_fraction
            if misreports and user.n_gpus <= 4:
                return "urgent", True
            return "standard", False
        raise MechanismError(f"unknown regime {regime!r}")

    def run_regime(self, users: Sequence[SyntheticUser], regime: str) -> QueueChoiceOutcome:
        """Submit every user's job under one regime and measure queue health."""
        if not users:
            raise MechanismError("run_regime requires at least one user")
        system = SegmentedQueueSystem()
        misreports = 0
        urgent_load_gpu_h = 0.0
        genuinely_urgent_jobs = 0
        for index, user in enumerate(users):
            queue_name, misreported = self._declared_queue(user, regime)
            misreports += int(misreported)
            job = Job(
                job_id=f"{regime}-{index:05d}",
                user_id=user.user_id,
                n_gpus=user.n_gpus,
                duration_h=user.duration_h,
                submit_time_h=0.0,
                tags={"truly_urgent": user.truly_urgent},
            )
            assigned = system.submit(job, preferred_queue=queue_name)
            if assigned == "urgent":
                urgent_load_gpu_h += job.gpu_hours
            if user.truly_urgent:
                genuinely_urgent_jobs += 1

        lengths = system.queue_lengths()
        demand = system.queue_gpu_demand()
        imbalance = system.imbalance()
        # Expected wait for urgent-queue work: queued GPU-hours over the queue's
        # service rate — a fluid (M/G/1-style backlog) approximation.
        expected_wait = urgent_load_gpu_h / self.urgent_queue_service_rate_gpu_h
        congestion = demand.get("urgent", 0) / max(1, sum(demand.values()))
        return QueueChoiceOutcome(
            regime=regime,
            queue_lengths=lengths,
            queue_gpu_demand=demand,
            imbalance=imbalance,
            urgent_queue_congestion=float(congestion),
            misreport_rate=misreports / len(users),
            expected_urgent_wait_penalty_h=float(expected_wait),
        )

    def compare_regimes(self, n_users: int = 400) -> dict[str, QueueChoiceOutcome]:
        """Run all three regimes on the same population."""
        population = self.synthetic_population(n_users)
        return {
            regime: self.run_regime(population, regime)
            for regime in ("truthful", "strategic", "two-part")
        }
