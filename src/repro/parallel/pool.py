"""Process-pool mapping with sensible fallbacks.

Following the HPC guidance of "make it work, measure, then parallelise the
bottleneck": the sweep harness uses plain ``ProcessPoolExecutor`` chunked
mapping, but falls back to serial execution when the task list is small
(process start-up would dominate) or when ``n_workers <= 1`` — which also
keeps the code path identical and easily testable without multiprocessing.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from ..errors import ConfigurationError

__all__ = ["ParallelConfig", "map_parallel"]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class ParallelConfig:
    """Controls how a sweep is executed.

    Attributes
    ----------
    n_workers:
        Number of worker processes; ``0`` means "use every CPU this process
        may run on" (its CPU affinity where the platform has one),
        ``1`` forces serial execution.
    min_tasks_for_processes:
        Below this many tasks the sweep runs serially regardless of
        ``n_workers`` (process start-up costs more than it saves).
    """

    n_workers: int = 1
    min_tasks_for_processes: int = 8

    def __post_init__(self) -> None:
        if self.n_workers < 0:
            raise ConfigurationError("n_workers must be >= 0")
        if self.min_tasks_for_processes < 0:
            raise ConfigurationError("min_tasks_for_processes must be >= 0")

    def resolved_workers(self) -> int:
        """The actual worker count (resolving 0 to the CPUs this process may run on)."""
        if self.n_workers == 0:
            if hasattr(os, "sched_getaffinity"):
                return max(1, len(os.sched_getaffinity(0)))
            return max(1, os.cpu_count() or 1)
        return self.n_workers

    def resolved_chunksize(self, n_tasks: int) -> int:
        """Tasks submitted to each worker at a time when mapping ``n_tasks``.

        About four chunks per worker, which balances load against per-chunk
        dispatch overhead and lets worker-local caches (e.g. a campaign's
        per-spec sessions) serve several adjacent tasks.
        """
        return max(1, math.ceil(n_tasks / (4 * self.resolved_workers())))


def map_parallel(
    function: Callable[[T], R],
    tasks: Iterable[T],
    config: ParallelConfig | None = None,
) -> list[R]:
    """Apply ``function`` to every task, in processes when it is worth it.

    Results are returned in task order regardless of execution order.  The
    function and tasks must be picklable when processes are used; the serial
    path has no such requirement, which tests rely on.
    """
    config = config or ParallelConfig()
    task_list: Sequence[T] = list(tasks)
    workers = config.resolved_workers()
    if workers <= 1 or len(task_list) < config.min_tasks_for_processes:
        return [function(task) for task in task_list]
    with ProcessPoolExecutor(max_workers=workers) as executor:
        return list(
            executor.map(
                function, task_list, chunksize=config.resolved_chunksize(len(task_list))
            )
        )
