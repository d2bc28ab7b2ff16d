"""Tests for the discrete-event cluster simulator."""

import dataclasses

import numpy as np
import pytest

from repro.config import FacilityConfig
from repro.cluster.cooling import CoolingModel
from repro.cluster.resources import Cluster
from repro.cluster.simulator import (
    ClusterSimulator,
    JobRecord,
    SimulationConfig,
    energy_per_gpu_hour,
    mean_wait,
    miss_rate,
    p95_wait,
)
from repro.core.levers import make_scheduler
from repro.errors import SimulationError
from repro.scheduler.job import Job, JobState


FACILITY = FacilityConfig(n_nodes=2, gpus_per_node=4)


def make_job(job_id: str, n_gpus: int, duration: float, submit: float, **kw) -> Job:
    return Job(job_id=job_id, user_id=kw.pop("user_id", "u"), n_gpus=n_gpus, duration_h=duration,
               submit_time_h=submit, **kw)


def run(jobs, scheduler=None, config=None, **kwargs):
    simulator = ClusterSimulator(
        Cluster(FACILITY), scheduler or make_scheduler("backfill"), config or SimulationConfig(horizon_h=48.0), **kwargs
    )
    return simulator.run(jobs)


class TestBasicExecution:
    def test_single_job_completes(self):
        result = run([make_job("a", 2, 3.0, 1.0)])
        record = result.job_records[0]
        assert record.completed
        assert record.start_time_h == pytest.approx(1.0)
        assert record.finish_time_h == pytest.approx(4.0)
        assert record.wait_time_h == pytest.approx(0.0)
        assert result.completed_jobs == 1

    def test_all_jobs_complete_when_capacity_allows(self):
        jobs = [make_job(f"j{i}", 1, 2.0, float(i)) for i in range(8)]
        result = run(jobs)
        assert result.completed_jobs == 8
        assert result.delivered_gpu_hours == pytest.approx(16.0)

    def test_queueing_when_cluster_full(self):
        jobs = [make_job("big", 8, 10.0, 0.0), make_job("next", 8, 5.0, 0.0)]
        result = run(jobs)
        records = {r.job_id: r for r in result.job_records}
        assert records["next"].start_time_h == pytest.approx(10.0)
        assert records["next"].wait_time_h == pytest.approx(10.0)

    def test_job_running_past_horizon_not_completed(self):
        result = run([make_job("a", 1, 100.0, 0.0)], config=SimulationConfig(horizon_h=24.0))
        record = result.job_records[0]
        assert not record.completed

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(SimulationError):
            run([make_job("a", 1, 1.0, 0.0), make_job("a", 1, 1.0, 0.0)])

    def test_non_pending_job_rejected(self):
        job = make_job("a", 1, 1.0, 0.0)
        job.state = JobState.RUNNING
        with pytest.raises(SimulationError):
            run([job])


class TestPowerAccounting:
    def test_power_series_recorded_each_tick(self):
        config = SimulationConfig(horizon_h=24.0, tick_h=1.0)
        result = run([make_job("a", 4, 5.0, 0.0)], config=config)
        assert result.tick_times_h.shape[0] == 25
        assert result.it_power_w.shape == result.tick_times_h.shape

    def test_it_power_higher_while_job_runs(self):
        config = SimulationConfig(horizon_h=24.0, tick_h=1.0)
        result = run([make_job("a", 8, 6.0, 2.0, utilization=1.0)], config=config)
        busy = result.it_power_w[(result.tick_times_h >= 2) & (result.tick_times_h < 8)]
        idle = result.it_power_w[result.tick_times_h >= 10]
        assert busy.min() > idle.max()

    def test_energy_totals_consistent(self):
        result = run([make_job("a", 2, 3.0, 0.0)])
        assert result.facility_energy_kwh >= result.it_energy_kwh
        assert result.it_energy_kwh > 0

    def test_pue_is_one_without_cooling(self):
        result = run([make_job("a", 2, 3.0, 0.0)])
        np.testing.assert_allclose(result.pue, 1.0)

    def test_cooling_requires_weather(self):
        with pytest.raises(SimulationError):
            ClusterSimulator(Cluster(FACILITY), make_scheduler("fifo"), cooling=CoolingModel())

    def test_cooling_raises_facility_energy(self, small_weather):
        config = SimulationConfig(horizon_h=48.0)
        plain = run([make_job("a", 4, 5.0, 0.0)], config=config)
        cooled = run(
            [make_job("a", 4, 5.0, 0.0)],
            config=config,
            weather_hourly_c=small_weather,
            cooling=CoolingModel(),
        )
        assert cooled.facility_energy_kwh > plain.facility_energy_kwh
        assert cooled.average_pue > 1.0

    def test_grid_enables_emissions_and_cost(self, small_grid, small_weather):
        result = run(
            [make_job("a", 4, 5.0, 0.0)],
            weather_hourly_c=small_weather,
            cooling=CoolingModel(),
            grid=small_grid,
        )
        assert result.total_emissions_kg > 0
        assert result.total_cost_usd > 0

    def test_no_grid_means_zero_emissions(self):
        result = run([make_job("a", 1, 1.0, 0.0)])
        assert result.total_emissions_kg == 0.0
        assert result.total_cost_usd == 0.0

    def test_peak_power_at_least_idle(self):
        result = run([make_job("a", 1, 1.0, 0.0)])
        idle_power = Cluster(FACILITY).it_power_w()
        assert result.peak_facility_power_w >= idle_power


class TestPowerCapsInSimulation:
    def test_caps_stretch_duration_and_lower_energy(self):
        uncapped = run([make_job("a", 4, 10.0, 0.0, utilization=1.0)], scheduler=make_scheduler("backfill"))
        capped = run(
            [make_job("a", 4, 10.0, 0.0, utilization=1.0)],
            scheduler=make_scheduler("energy-aware", 0.75),
        )
        rec_uncapped = uncapped.job_records[0]
        rec_capped = capped.job_records[0]
        assert rec_capped.actual_duration_h > rec_uncapped.actual_duration_h
        assert rec_capped.energy_j < rec_uncapped.energy_j
        assert rec_capped.power_cap_w is not None


class TestDeadlinesAndSummary:
    def test_deadline_miss_rate(self):
        jobs = [
            make_job("block", 8, 20.0, 0.0),
            make_job("late", 8, 5.0, 0.0, deadline_h=10.0),
        ]
        result = run(jobs, config=SimulationConfig(horizon_h=72.0))
        assert result.deadline_miss_rate == pytest.approx(1.0)

    def test_summary_keys(self):
        result = run([make_job("a", 1, 1.0, 0.0)])
        summary = result.summary()
        for key in ("facility_energy_kwh", "emissions_kg", "completed_jobs", "mean_wait_h"):
            assert key in summary

    def test_mean_wait_nan_when_nothing_started(self):
        result = run([make_job("a", 1, 1.0, 100.0)], config=SimulationConfig(horizon_h=24.0))
        assert np.isnan(result.mean_wait_h)

    def test_energy_per_gpu_hour(self):
        result = run([make_job("a", 2, 4.0, 0.0)])
        assert result.energy_per_gpu_hour_kwh > 0

    def test_record_formulas_on_hand_built_records(self):
        def record(job_id, wait, *, completed=True, had_deadline=False, missed=False):
            return JobRecord(
                job_id=job_id, user_id="u", queue_name="q", n_gpus=1,
                submit_time_h=0.0, start_time_h=wait, finish_time_h=None,
                wait_time_h=wait, baseline_duration_h=1.0, actual_duration_h=None,
                power_cap_w=None, energy_j=0.0, completed=completed,
                had_deadline=had_deadline, missed_deadline=missed,
            )

        records = [
            record("met", 1.0, had_deadline=True),
            record("late", 3.0, had_deadline=True, missed=True),
            record("unfinished", 5.0, completed=False, had_deadline=True),
            record("free", 7.0),
            record("queued", None),
        ]
        # Waits count only started jobs; an unfinished deadline job missed it.
        assert mean_wait(records) == pytest.approx(4.0)
        assert p95_wait(records) == pytest.approx(float(np.percentile([1.0, 3.0, 5.0, 7.0], 95)))
        assert miss_rate(records) == pytest.approx(2 / 3)
        assert miss_rate(records[3:]) == 0.0
        assert np.isnan(mean_wait(records[4:])) and np.isnan(p95_wait([]))
        assert energy_per_gpu_hour(10.0, 4.0) == 2.5
        assert np.isnan(energy_per_gpu_hour(10.0, 0.0))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("job_id", "other"),
            ("start_time_h", 1.5),
            ("finish_time_h", 9.0),
            ("energy_j", 1.0),
            ("power_cap_w", 123.0),
            ("completed", False),
            ("missed_deadline", True),
        ],
    )
    def test_digest_covers_every_outcome_field(self, field, value):
        result = run([make_job("a", 2, 3.0, 1.0), make_job("b", 1, 2.0, 0.0)])
        before = result.digest()
        assert getattr(result.job_records[0], field) != value
        result.job_records[0] = dataclasses.replace(result.job_records[0], **{field: value})
        assert result.digest() != before


class TestCarbonAwareIntegration:
    def test_deferrable_jobs_eventually_run(self, small_grid, small_weather):
        jobs = [
            make_job(f"d{i}", 1, 2.0, 0.0, deferrable=True, max_defer_h=12.0) for i in range(4)
        ]
        result = run(
            jobs,
            scheduler=make_scheduler("carbon-aware"),
            config=SimulationConfig(horizon_h=48.0),
            weather_hourly_c=small_weather,
            cooling=CoolingModel(),
            grid=small_grid,
        )
        assert result.completed_jobs == 4
        starts = [r.start_time_h for r in result.job_records]
        assert all(s is not None and s <= 12.0 + 2.0 for s in starts)

    def test_policies_deliver_identical_work(self, small_grid, small_weather, job_trace):
        """Different policies must deliver the same completed GPU-hours on a
        trace that fits comfortably inside the horizon (the activity side of Eq. 1)."""
        results = []
        for policy, cap in (("backfill", None), ("energy-aware", 0.75), ("carbon-aware", None)):
            sim = ClusterSimulator(
                Cluster(FacilityConfig(n_nodes=16, gpus_per_node=2)),
                make_scheduler(policy, cap),
                SimulationConfig(horizon_h=10 * 24.0),
                weather_hourly_c=small_weather,
                cooling=CoolingModel(),
                grid=small_grid,
            )
            results.append(sim.run([j.clone_pending() for j in job_trace]))
        delivered = {round(r.delivered_gpu_hours, 3) for r in results}
        assert len(delivered) == 1
