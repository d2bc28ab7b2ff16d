"""The job model.

A job is the unit of demand ``q_d`` in the paper's framework: a request for
``n_gpus`` GPUs for some duration, submitted by a user, possibly carrying the
user-stated preferences that Section II.C's queue-segmentation mechanism
relies on (urgency/patience, deadline, willingness to accept power caps).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import SchedulingError

__all__ = ["JobState", "Job", "STATIC_FIELDS"]

#: The fields a job is created with, in constructor order.  Everything else
#: on a :class:`Job` is runtime state the simulator manages.
STATIC_FIELDS = (
    "job_id",
    "user_id",
    "n_gpus",
    "duration_h",
    "submit_time_h",
    "utilization",
    "priority",
    "deadline_h",
    "deferrable",
    "max_defer_h",
    "queue_name",
    "power_cap_fraction",
    "tags",
)


class JobState(enum.Enum):
    """Lifecycle states of a job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"


@dataclass
class Job:
    """A GPU job.

    Attributes
    ----------
    job_id:
        Unique identifier.
    user_id:
        Submitting user (ties into the Eq. 2 per-user decomposition).
    n_gpus:
        Number of GPUs requested.
    duration_h:
        Baseline runtime in hours at full power (no cap) on the requested GPUs.
    submit_time_h:
        Simulated submission time.
    utilization:
        Average GPU utilization the job drives while running.
    priority:
        Larger values are more important (used by some policies).
    deadline_h:
        Optional absolute completion deadline in simulated hours.
    deferrable:
        Whether the job tolerates being delayed for carbon/price reasons.
    max_defer_h:
        Maximum delay (beyond submit time) a deferrable job accepts before it
        must be started regardless of grid conditions.
    queue_name:
        Name of the queue the job was submitted to (segmentation mechanism).
    power_cap_fraction:
        Power cap (as a fraction of TDP) the job agreed to, if any.  ``None``
        means "no agreement"; the scheduler may still impose one.
    tags:
        Free-form metadata (workload type, conference target, ...).
    """

    job_id: str
    user_id: str
    n_gpus: int
    duration_h: float
    submit_time_h: float
    utilization: float = 0.9
    priority: int = 0
    deadline_h: Optional[float] = None
    deferrable: bool = False
    max_defer_h: float = 0.0
    queue_name: str = "default"
    power_cap_fraction: Optional[float] = None
    tags: dict[str, Any] = field(default_factory=dict)

    # Runtime fields managed by the simulator.
    state: JobState = JobState.PENDING
    start_time_h: Optional[float] = None
    finish_time_h: Optional[float] = None
    assigned_power_cap_w: Optional[float] = None
    actual_duration_h: Optional[float] = None
    energy_j: float = 0.0

    def __post_init__(self) -> None:
        if self.n_gpus <= 0:
            raise SchedulingError(f"job {self.job_id!r}: n_gpus must be positive")
        if self.duration_h <= 0:
            raise SchedulingError(f"job {self.job_id!r}: duration_h must be positive")
        if self.submit_time_h < 0:
            raise SchedulingError(f"job {self.job_id!r}: submit_time_h must be non-negative")
        if not 0.0 <= self.utilization <= 1.0:
            raise SchedulingError(f"job {self.job_id!r}: utilization must lie in [0, 1]")
        if self.max_defer_h < 0:
            raise SchedulingError(f"job {self.job_id!r}: max_defer_h must be non-negative")
        if self.power_cap_fraction is not None and not 0.0 < self.power_cap_fraction <= 1.0:
            raise SchedulingError(
                f"job {self.job_id!r}: power_cap_fraction must lie in (0, 1]"
            )
        if self.deadline_h is not None and self.deadline_h < self.submit_time_h:
            raise SchedulingError(
                f"job {self.job_id!r}: deadline_h precedes submit_time_h"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def gpu_hours(self) -> float:
        """Requested GPU-hours (n_gpus * baseline duration)."""
        return self.n_gpus * self.duration_h

    @property
    def is_pending(self) -> bool:
        """Whether the job is waiting to be scheduled."""
        return self.state is JobState.PENDING

    def wait_time_h(self) -> Optional[float]:
        """Time spent waiting in queue, or ``None`` if never started."""
        if self.start_time_h is None:
            return None
        return self.start_time_h - self.submit_time_h

    def latest_start_for_deadline(self, slowdown_factor: float = 1.0) -> Optional[float]:
        """Latest start time that still meets the deadline at the given slowdown."""
        if self.deadline_h is None:
            return None
        return self.deadline_h - self.duration_h * slowdown_factor

    def must_start_by(self) -> float:
        """Hard latest start time: the end of the job's deferral window.

        Deferrable jobs may be held back for carbon/price reasons, but only
        until ``submit_time_h + max_defer_h``.  A job that is not deferrable
        must start as soon as it is submitted, so this is its
        ``submit_time_h``: a deferral gate holds it for no time at all.
        """
        if not self.deferrable:
            return self.submit_time_h
        return self.submit_time_h + self.max_defer_h

    def missed_deadline(self) -> bool:
        """Whether the job finished after its deadline (False when no deadline)."""
        if self.deadline_h is None or self.finish_time_h is None:
            return False
        return self.finish_time_h > self.deadline_h + 1e-9

    # ------------------------------------------------------------------
    # State transitions (used by the simulator)
    # ------------------------------------------------------------------
    def mark_started(self, time_h: float, *, power_cap_w: Optional[float], duration_h: float) -> None:
        """Transition PENDING -> RUNNING, recording the placement decisions."""
        if self.state is not JobState.PENDING:
            raise SchedulingError(f"job {self.job_id!r} cannot start from state {self.state}")
        if time_h < self.submit_time_h - 1e-9:
            raise SchedulingError(f"job {self.job_id!r} cannot start before submission")
        self.state = JobState.RUNNING
        self.start_time_h = float(time_h)
        self.assigned_power_cap_w = power_cap_w
        self.actual_duration_h = float(duration_h)

    def mark_completed(self, time_h: float, energy_j: float) -> None:
        """Transition RUNNING -> COMPLETED, recording the consumed energy."""
        if self.state is not JobState.RUNNING:
            raise SchedulingError(f"job {self.job_id!r} cannot complete from state {self.state}")
        self.state = JobState.COMPLETED
        self.finish_time_h = float(time_h)
        self.energy_j = float(energy_j)

    def mark_interrupted(self, time_h: float, energy_j: float) -> None:
        """Transition RUNNING -> CANCELLED at ``time_h`` (e.g. the simulation horizon).

        The energy consumed so far is recorded, but the job does not count as
        completed — its work was cut short.
        """
        if self.state is not JobState.RUNNING:
            raise SchedulingError(f"job {self.job_id!r} cannot be interrupted from state {self.state}")
        self.state = JobState.CANCELLED
        self.finish_time_h = float(time_h)
        self.energy_j = float(energy_j)

    def clone_pending(self) -> "Job":
        """A fresh PENDING copy of this job (same static fields, reset runtime).

        Policy-comparison experiments run the *same* trace through several
        schedulers; cloning keeps the traces independent.
        """
        return Job(
            job_id=self.job_id,
            user_id=self.user_id,
            n_gpus=self.n_gpus,
            duration_h=self.duration_h,
            submit_time_h=self.submit_time_h,
            utilization=self.utilization,
            priority=self.priority,
            deadline_h=self.deadline_h,
            deferrable=self.deferrable,
            max_defer_h=self.max_defer_h,
            queue_name=self.queue_name,
            power_cap_fraction=self.power_cap_fraction,
            tags=dict(self.tags),
        )
