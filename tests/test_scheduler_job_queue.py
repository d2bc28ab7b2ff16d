"""Tests for the job model and the segmented queue system."""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.scheduler.job import Job, JobState
from repro.scheduler.queue import JobQueue, QueuePolicy, SegmentedQueueSystem


def make_job(**overrides) -> Job:
    defaults = dict(job_id="j1", user_id="u1", n_gpus=2, duration_h=4.0, submit_time_h=1.0)
    defaults.update(overrides)
    return Job(**defaults)


class TestJobValidation:
    def test_valid_job(self):
        job = make_job()
        assert job.is_pending
        assert job.gpu_hours == pytest.approx(8.0)

    def test_rejects_bad_gpus(self):
        with pytest.raises(SchedulingError):
            make_job(n_gpus=0)

    def test_rejects_bad_duration(self):
        with pytest.raises(SchedulingError):
            make_job(duration_h=0.0)

    def test_rejects_bad_utilization(self):
        with pytest.raises(SchedulingError):
            make_job(utilization=1.5)

    def test_rejects_deadline_before_submit(self):
        with pytest.raises(SchedulingError):
            make_job(deadline_h=0.5)

    def test_rejects_bad_cap_fraction(self):
        with pytest.raises(SchedulingError):
            make_job(power_cap_fraction=0.0)


class TestJobLifecycle:
    def test_start_and_complete(self):
        job = make_job()
        job.mark_started(2.0, power_cap_w=200.0, duration_h=4.5)
        assert job.state is JobState.RUNNING
        assert job.wait_time_h() == pytest.approx(1.0)
        job.mark_completed(6.5, energy_j=1e6)
        assert job.state is JobState.COMPLETED
        assert job.finish_time_h == pytest.approx(6.5)
        assert job.energy_j == 1e6

    def test_cannot_start_twice(self):
        job = make_job()
        job.mark_started(2.0, power_cap_w=None, duration_h=4.0)
        with pytest.raises(SchedulingError):
            job.mark_started(3.0, power_cap_w=None, duration_h=4.0)

    def test_cannot_start_before_submit(self):
        job = make_job(submit_time_h=10.0)
        with pytest.raises(SchedulingError):
            job.mark_started(5.0, power_cap_w=None, duration_h=4.0)

    def test_cannot_complete_pending(self):
        with pytest.raises(SchedulingError):
            make_job().mark_completed(5.0, 0.0)

    def test_deadline_miss_detection(self):
        job = make_job(deadline_h=6.0)
        job.mark_started(1.0, power_cap_w=None, duration_h=4.0)
        job.mark_completed(7.0, 0.0)
        assert job.missed_deadline()

    def test_deadline_met(self):
        job = make_job(deadline_h=10.0)
        job.mark_started(1.0, power_cap_w=None, duration_h=4.0)
        job.mark_completed(5.0, 0.0)
        assert not job.missed_deadline()

    def test_must_start_by(self):
        assert make_job().must_start_by() == pytest.approx(1.0)
        deferrable = make_job(deferrable=True, max_defer_h=12.0)
        assert deferrable.must_start_by() == pytest.approx(13.0)

    def test_latest_start_for_deadline(self):
        job = make_job(deadline_h=10.0)
        assert job.latest_start_for_deadline() == pytest.approx(6.0)
        assert job.latest_start_for_deadline(slowdown_factor=1.5) == pytest.approx(4.0)
        assert make_job().latest_start_for_deadline() is None

    def test_clone_pending_resets_runtime(self):
        job = make_job()
        job.mark_started(2.0, power_cap_w=None, duration_h=4.0)
        clone = job.clone_pending()
        assert clone.is_pending
        assert clone.start_time_h is None
        assert clone.job_id == job.job_id


class TestQueuePolicy:
    def test_admits_by_size(self):
        policy = QueuePolicy(name="small", max_gpus_per_job=4)
        assert policy.admits(make_job(n_gpus=4))
        assert not policy.admits(make_job(n_gpus=8))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QueuePolicy(name="", max_gpus_per_job=4)
        with pytest.raises(ConfigurationError):
            QueuePolicy(name="x", max_gpus_per_job=0)
        with pytest.raises(ConfigurationError):
            QueuePolicy(name="x", max_gpus_per_job=4, power_cap_fraction=0.0)


class TestJobQueue:
    def test_submit_applies_policy(self):
        queue = JobQueue(QueuePolicy(name="eco", max_gpus_per_job=8, power_cap_fraction=0.6, priority_boost=2))
        job = make_job()
        queue.submit(job)
        assert job.queue_name == "eco"
        assert job.power_cap_fraction == pytest.approx(0.6)
        assert job.priority == 2

    def test_rejects_oversized_job(self):
        queue = JobQueue(QueuePolicy(name="small", max_gpus_per_job=1))
        with pytest.raises(SchedulingError):
            queue.submit(make_job(n_gpus=2))

    def test_rejects_non_pending(self):
        queue = JobQueue(QueuePolicy(name="q", max_gpus_per_job=8))
        job = make_job()
        job.mark_started(1.0, power_cap_w=None, duration_h=1.0)
        with pytest.raises(SchedulingError):
            queue.submit(job)

    def test_pending_jobs_drops_started(self):
        queue = JobQueue(QueuePolicy(name="q", max_gpus_per_job=8))
        a, b = make_job(job_id="a"), make_job(job_id="b")
        queue.submit(a)
        queue.submit(b)
        a.mark_started(1.0, power_cap_w=None, duration_h=1.0)
        assert [j.job_id for j in queue.pending_jobs()] == ["b"]

    def test_waiting_gpu_demand(self):
        queue = JobQueue(QueuePolicy(name="q", max_gpus_per_job=8))
        queue.submit(make_job(job_id="a", n_gpus=3))
        queue.submit(make_job(job_id="b", n_gpus=5))
        assert queue.waiting_gpu_demand() == 8


class TestSegmentedQueueSystem:
    def test_default_queues_exist(self):
        system = SegmentedQueueSystem()
        assert set(system.queues) == {"urgent", "standard", "eco"}

    def test_submit_honours_preference(self):
        system = SegmentedQueueSystem()
        assert system.submit(make_job(n_gpus=2), preferred_queue="urgent") == "urgent"

    def test_oversized_preference_falls_back(self):
        system = SegmentedQueueSystem()
        # urgent only admits up to 4 GPUs; an 8-GPU job lands in standard.
        assert system.submit(make_job(n_gpus=8), preferred_queue="urgent") == "standard"

    def test_huge_job_falls_back_to_largest_queue(self):
        system = SegmentedQueueSystem()
        assert system.submit(make_job(n_gpus=32)) == "eco"

    def test_unroutable_job_rejected(self):
        system = SegmentedQueueSystem()
        with pytest.raises(SchedulingError):
            system.submit(make_job(n_gpus=64))

    def test_duplicate_queue_names_rejected(self):
        policy = QueuePolicy(name="dup", max_gpus_per_job=2)
        with pytest.raises(ConfigurationError):
            SegmentedQueueSystem([policy, policy], default_queue="dup")

    def test_unknown_default_rejected(self):
        with pytest.raises(ConfigurationError):
            SegmentedQueueSystem(default_queue="missing")

    def test_queue_lengths_and_demand(self):
        system = SegmentedQueueSystem()
        system.submit(make_job(job_id="a", n_gpus=2), preferred_queue="urgent")
        system.submit(make_job(job_id="b", n_gpus=8))
        lengths = system.queue_lengths()
        assert lengths["urgent"] == 1
        assert lengths["standard"] == 1
        assert system.queue_gpu_demand()["standard"] == 8

    def test_imbalance_balanced_when_empty(self):
        assert SegmentedQueueSystem().imbalance() == pytest.approx(1.0)

    def test_imbalance_grows_when_one_queue_clogged(self):
        system = SegmentedQueueSystem()
        for i in range(10):
            system.submit(make_job(job_id=f"j{i}", n_gpus=4), preferred_queue="urgent")
        assert system.imbalance() > 2.0

    def test_pending_jobs_sorted_by_submit_time(self):
        system = SegmentedQueueSystem()
        system.submit(make_job(job_id="late", submit_time_h=5.0))
        system.submit(make_job(job_id="early", submit_time_h=1.0))
        assert [j.job_id for j in system.pending_jobs()] == ["early", "late"]
