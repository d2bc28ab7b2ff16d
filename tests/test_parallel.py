"""Tests for the parallel sweep harness."""

import os
import time

import pytest

from repro.errors import ConfigurationError
from repro.parallel.pool import ParallelConfig, map_parallel
from repro.scheduler.powercap import powercap_energy_tradeoff


def square(x: int) -> int:
    return x * x


def uneven_identity(x: int) -> int:
    """Module-level (picklable) task whose duration *decreases* with x, so
    later tasks finish first and only explicit ordering keeps results sorted."""
    time.sleep(0.02 * (3 - x % 4))
    return x


class TestParallelConfig:
    def test_defaults_serial(self):
        assert ParallelConfig().resolved_workers() == 1

    def test_zero_means_all_cores(self):
        assert ParallelConfig(n_workers=0).resolved_workers() >= 1

    def test_zero_counts_only_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert ParallelConfig(n_workers=0).resolved_workers() == 2
        assert ParallelConfig(n_workers=3).resolved_workers() == 3  # explicit counts stand
        monkeypatch.delattr(os, "sched_getaffinity")
        assert ParallelConfig(n_workers=0).resolved_workers() == 64

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(n_workers=-1)


class TestMapParallel:
    def test_serial_path(self):
        assert map_parallel(square, [1, 2, 3]) == [1, 4, 9]

    def test_serial_preserves_order(self):
        assert map_parallel(square, range(10)) == [i * i for i in range(10)]

    def test_small_task_count_stays_serial_even_with_workers(self):
        config = ParallelConfig(n_workers=4, min_tasks_for_processes=100)
        # A lambda is not picklable; succeeding proves the serial path was used.
        assert map_parallel(lambda x: x + 1, [1, 2, 3], config) == [2, 3, 4]

    def test_process_pool_path(self):
        config = ParallelConfig(n_workers=2, min_tasks_for_processes=2)
        assert map_parallel(square, list(range(12)), config) == [i * i for i in range(12)]

    def test_process_pool_preserves_task_order_despite_uneven_durations(self):
        # 8 tasks on 4 workers resolve to one task per chunk.
        config = ParallelConfig(n_workers=4, min_tasks_for_processes=2)
        assert map_parallel(uneven_identity, list(range(8)), config) == list(range(8))

    def test_empty_tasks(self):
        assert map_parallel(square, []) == []

    def test_automatic_chunksize(self):
        assert ParallelConfig(n_workers=2).resolved_chunksize(100) == 13
        assert ParallelConfig(n_workers=2).resolved_chunksize(1) == 1


class TestPowercapSweep:
    def test_parallel_execution_matches_serial(self):
        fractions = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.45, 0.4]
        serial = powercap_energy_tradeoff("A100", fractions)
        parallel = powercap_energy_tradeoff(
            "A100", fractions, parallel=ParallelConfig(n_workers=2, min_tasks_for_processes=2)
        )
        assert parallel == serial
        assert [row.cap_fraction for row in serial] == fractions
