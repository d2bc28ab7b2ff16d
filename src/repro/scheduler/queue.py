"""Job queues and the segmented-queue system of Section II.C.

The paper proposes "queues for finer user and workload segmentation": users
declare preferences (urgency, energy-efficiency tolerance, expected length)
and are routed to queues whose policies are tailored to those declarations —
e.g. an *eco* queue that enforces tighter power caps but offers more GPUs,
versus an *urgent* queue with no caps but lower GPU limits.  It also warns
about the adverse-selection failure mode, which the
:mod:`repro.core.adverse_selection` simulation explores using exactly these
queue objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..config import require_non_negative
from ..errors import ConfigurationError, SchedulingError
from .job import Job, JobState

__all__ = ["QueuePolicy", "JobQueue", "SegmentedQueueSystem"]


@dataclass(frozen=True)
class QueuePolicy:
    """The resource policy attached to one queue.

    Attributes
    ----------
    name:
        Queue name.
    max_gpus_per_job:
        Largest GPU request accepted by the queue.
    power_cap_fraction:
        Power cap (fraction of TDP) enforced on jobs in this queue; ``None``
        means uncapped.
    priority_boost:
        Additive priority applied to the queue's jobs at scheduling time.
    max_queue_wait_h:
        Advisory wait-time target used for reporting (not enforced).
    description:
        Human-readable description shown to users.
    """

    name: str
    max_gpus_per_job: int
    power_cap_fraction: Optional[float] = None
    priority_boost: int = 0
    max_queue_wait_h: float = 24.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("queue name must be non-empty")
        if self.max_gpus_per_job <= 0:
            raise ConfigurationError("max_gpus_per_job must be positive")
        if self.power_cap_fraction is not None and not 0.0 < self.power_cap_fraction <= 1.0:
            raise ConfigurationError("power_cap_fraction must lie in (0, 1]")
        require_non_negative(self.max_queue_wait_h, "max_queue_wait_h")

    def admits(self, job: Job) -> bool:
        """Whether the queue accepts this job's resource request."""
        return job.n_gpus <= self.max_gpus_per_job


class JobQueue:
    """A FIFO queue of pending jobs governed by a :class:`QueuePolicy`."""

    def __init__(self, policy: QueuePolicy) -> None:
        self.policy = policy
        self._jobs: list[Job] = []

    @property
    def name(self) -> str:
        """The queue's name."""
        return self.policy.name

    def __len__(self) -> int:
        return len(self._jobs)

    def submit(self, job: Job) -> None:
        """Add a pending job to the queue (applying the queue's policy to it)."""
        if not job.is_pending:
            raise SchedulingError(f"only pending jobs can be queued, got state {job.state}")
        if not self.policy.admits(job):
            raise SchedulingError(
                f"queue {self.name!r} admits at most {self.policy.max_gpus_per_job} GPUs, "
                f"job {job.job_id!r} requested {job.n_gpus}"
            )
        job.queue_name = self.name
        if self.policy.power_cap_fraction is not None:
            job.power_cap_fraction = self.policy.power_cap_fraction
        job.priority += self.policy.priority_boost
        self._jobs.append(job)

    def pending_jobs(self) -> list[Job]:
        """Pending jobs in submission order (drops jobs that left PENDING)."""
        self._jobs = [j for j in self._jobs if j.state is JobState.PENDING]
        return list(self._jobs)

    def waiting_gpu_demand(self) -> int:
        """Total GPUs requested by jobs currently waiting in the queue."""
        return sum(j.n_gpus for j in self.pending_jobs())


class SegmentedQueueSystem:
    """A collection of queues with user self-selection (Section II.C).

    Parameters
    ----------
    policies:
        The queue policies offered to users.
    default_queue:
        Name of the queue used when a job does not state a preference or its
        preferred queue rejects the request.
    """

    #: A representative three-queue menu: an urgent queue (small, uncapped),
    #: a standard queue, and an eco queue that trades a tight power cap for
    #: bigger allocations — the paper's two-part-mechanism example.
    DEFAULT_POLICIES: tuple[QueuePolicy, ...] = (
        QueuePolicy(
            name="urgent",
            max_gpus_per_job=4,
            power_cap_fraction=None,
            priority_boost=10,
            max_queue_wait_h=2.0,
            description="Small, latency-sensitive jobs; no power caps.",
        ),
        QueuePolicy(
            name="standard",
            max_gpus_per_job=16,
            power_cap_fraction=None,
            priority_boost=0,
            max_queue_wait_h=24.0,
            description="Default batch queue.",
        ),
        QueuePolicy(
            name="eco",
            max_gpus_per_job=32,
            power_cap_fraction=0.6,
            priority_boost=2,
            max_queue_wait_h=48.0,
            description="Accept a 60% TDP power cap in exchange for larger allocations.",
        ),
    )

    def __init__(
        self,
        policies: Iterable[QueuePolicy] | None = None,
        *,
        default_queue: str = "standard",
    ) -> None:
        policy_list = tuple(policies) if policies is not None else self.DEFAULT_POLICIES
        if not policy_list:
            raise ConfigurationError("SegmentedQueueSystem requires at least one queue policy")
        names = [p.name for p in policy_list]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate queue names: {names}")
        self.queues: dict[str, JobQueue] = {p.name: JobQueue(p) for p in policy_list}
        if default_queue not in self.queues:
            raise ConfigurationError(
                f"default queue {default_queue!r} not among queues {sorted(self.queues)}"
            )
        self.default_queue = default_queue

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, job: Job, preferred_queue: Optional[str] = None) -> str:
        """Route a job to a queue and return the queue name used.

        The user's preferred queue is honoured when it exists and admits the
        request; otherwise the job falls back to the default queue, and, if
        even that queue rejects it, to any queue that admits it (largest
        ``max_gpus_per_job`` first).
        """
        candidates: list[str] = []
        if preferred_queue is not None and preferred_queue in self.queues:
            candidates.append(preferred_queue)
        candidates.append(self.default_queue)
        candidates.extend(
            sorted(
                self.queues,
                key=lambda name: self.queues[name].policy.max_gpus_per_job,
                reverse=True,
            )
        )
        for name in candidates:
            queue = self.queues[name]
            if queue.policy.admits(job):
                queue.submit(job)
                return name
        raise SchedulingError(
            f"no queue admits job {job.job_id!r} requesting {job.n_gpus} GPUs"
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def pending_jobs(self) -> list[Job]:
        """All pending jobs across queues, ordered by submit time then queue priority."""
        jobs: list[Job] = []
        for queue in self.queues.values():
            jobs.extend(queue.pending_jobs())
        jobs.sort(key=lambda j: (j.submit_time_h, -j.priority, j.job_id))
        return jobs

    def queue_lengths(self) -> dict[str, int]:
        """Number of pending jobs per queue."""
        return {name: len(queue.pending_jobs()) for name, queue in self.queues.items()}

    def queue_gpu_demand(self) -> dict[str, int]:
        """Pending GPU demand per queue."""
        return {name: queue.waiting_gpu_demand() for name, queue in self.queues.items()}

    def imbalance(self) -> float:
        """Load imbalance across queues: max/mean pending GPU demand (1.0 = balanced).

        The adverse-selection analysis uses this as the "clogged queues"
        indicator the paper describes (some queues overtaxed, others idle).
        """
        demands = list(self.queue_gpu_demand().values())
        total = sum(demands)
        if total == 0:
            return 1.0
        mean = total / len(demands)
        return max(demands) / mean
