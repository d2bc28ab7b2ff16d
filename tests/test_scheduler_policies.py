"""Tests for the scheduling policies and power-cap controllers."""

import pytest

from repro.config import FacilityConfig
from repro.cluster.resources import Cluster
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.levers import make_scheduler
from repro.errors import SchedulingError
from repro.scheduler.base import ScheduleDecision, SchedulingContext
from repro.scheduler.compose import build_pipeline
from repro.scheduler.job import Job
from repro.scheduler.powercap import powercap_energy_tradeoff
from repro.scheduler.stages import AdaptiveCapStage, StaticCapStage
from repro.workloads.supercloud import SuperCloudTraceConfig, SuperCloudTraceGenerator


def make_job(job_id: str, n_gpus: int, submit: float = 0.0, **kw) -> Job:
    return Job(job_id=job_id, user_id="u", n_gpus=n_gpus, duration_h=2.0, submit_time_h=submit, **kw)


@pytest.fixture()
def cluster() -> Cluster:
    return Cluster(FacilityConfig(n_nodes=2, gpus_per_node=4))  # 8 GPUs


def ctx(**kw) -> SchedulingContext:
    defaults = dict(now_h=0.0)
    defaults.update(kw)
    return SchedulingContext(**defaults)


class TestSchedulingContext:
    def test_green_hour_without_grid_info(self):
        assert ctx().is_green_hour()

    def test_green_hour_thresholding(self):
        assert ctx(carbon_intensity_g_per_kwh=300.0, carbon_intensity_threshold=350.0).is_green_hour()
        assert not ctx(carbon_intensity_g_per_kwh=400.0, carbon_intensity_threshold=350.0).is_green_hour()

    def test_decision_cap_validation(self):
        with pytest.raises(SchedulingError):
            ScheduleDecision(job=make_job("a", 1), power_cap_fraction=0.0)


class TestFifo:
    def test_starts_in_order_until_blocked(self, cluster):
        jobs = [make_job("a", 4, 0.0), make_job("b", 6, 1.0), make_job("c", 1, 2.0)]
        decisions = make_scheduler("fifo").select(jobs, cluster, ctx())
        # "a" fits (4 of 8); "b" (6) does not and blocks "c" despite it fitting.
        assert [d.job.job_id for d in decisions] == ["a"]

    def test_starts_everything_when_it_fits(self, cluster):
        jobs = [make_job("a", 2), make_job("b", 2), make_job("c", 2)]
        decisions = make_scheduler("fifo").select(jobs, cluster, ctx())
        assert [d.job.job_id for d in decisions] == ["a", "b", "c"]

    def test_a_job_larger_than_the_cluster_does_not_block(self, cluster):
        jobs = [make_job("a", 4, 0.0), make_job("huge", 9, 1.0), make_job("c", 1, 2.0)]
        decisions = make_scheduler("fifo").select(jobs, cluster, ctx())
        assert [d.job.job_id for d in decisions] == ["a", "c"]

    def test_oversized_jobs_do_not_starve_a_run(self):
        """Every job that fits the cluster starts, though some never can."""
        facility = FacilityConfig(n_nodes=2, gpus_per_node=2)
        generator = SuperCloudTraceGenerator(SuperCloudTraceConfig(facility=facility), seed=0)
        jobs = generator.generate_jobs(n_jobs=40, horizon_h=120.0)
        fitting = {job.job_id for job in jobs if job.n_gpus <= facility.total_gpus}
        assert 0 < len(fitting) < len(jobs)
        simulator = ClusterSimulator(
            Cluster(facility), build_pipeline("fifo"), SimulationConfig(horizon_h=120.0)
        )
        result = simulator.run([job.clone_pending() for job in jobs])
        started = {r.job_id for r in result.job_records if r.start_time_h is not None}
        assert started == fitting


class TestBackfill:
    def test_backfills_around_blocked_head(self, cluster):
        jobs = [make_job("a", 4, 0.0), make_job("b", 6, 1.0), make_job("c", 1, 2.0)]
        decisions = make_scheduler("backfill").select(jobs, cluster, ctx())
        assert [d.job.job_id for d in decisions] == ["a", "c"]

    def test_never_exceeds_free_gpus(self, cluster):
        jobs = [make_job(f"j{i}", 3, float(i)) for i in range(6)]
        decisions = make_scheduler("backfill").select(jobs, cluster, ctx())
        assert sum(d.job.n_gpus for d in decisions) <= cluster.n_free_gpus


class TestEnergyAware:
    def test_applies_power_caps(self, cluster):
        scheduler = make_scheduler("energy-aware", 0.7)
        decisions = scheduler.select([make_job("a", 2)], cluster, ctx())
        assert decisions[0].power_cap_fraction == pytest.approx(0.7)

    def test_urgent_queue_exempt_from_caps(self, cluster):
        scheduler = make_scheduler("energy-aware", 0.7)
        job = make_job("a", 2, queue_name="urgent")
        decisions = scheduler.select([job], cluster, ctx())
        assert decisions[0].power_cap_fraction is None

    def test_respects_power_budget(self, cluster):
        scheduler = make_scheduler("energy-aware", 1.0)
        jobs = [make_job("a", 4, utilization=1.0), make_job("b", 4, utilization=1.0)]
        # A tiny facility budget prevents the second start.
        context = ctx(facility_power_budget_w=2000.0, current_pue=1.0, current_it_power_w=0.0)
        decisions = scheduler.select(jobs, cluster, context)
        assert len(decisions) == 1

    def test_no_budget_starts_everything(self, cluster):
        scheduler = make_scheduler("energy-aware", 0.75)
        jobs = [make_job("a", 4), make_job("b", 4)]
        assert len(scheduler.select(jobs, cluster, ctx())) == 2


class TestCarbonAware:
    def test_defers_deferrable_jobs_in_dirty_hours(self, cluster):
        scheduler = make_scheduler("carbon-aware")
        job = make_job("a", 2, deferrable=True, max_defer_h=24.0)
        dirty = ctx(now_h=1.0, carbon_intensity_g_per_kwh=500.0, carbon_intensity_threshold=300.0)
        assert scheduler.select([job], cluster, dirty) == []

    def test_starts_deferrable_jobs_in_green_hours(self, cluster):
        scheduler = make_scheduler("carbon-aware")
        job = make_job("a", 2, deferrable=True, max_defer_h=24.0)
        green = ctx(now_h=1.0, carbon_intensity_g_per_kwh=200.0, carbon_intensity_threshold=300.0)
        assert len(scheduler.select([job], cluster, green)) == 1

    def test_deferral_window_expiry_forces_start(self, cluster):
        scheduler = make_scheduler("carbon-aware")
        job = make_job("a", 2, submit=0.0, deferrable=True, max_defer_h=6.0)
        dirty_late = ctx(now_h=7.0, carbon_intensity_g_per_kwh=500.0, carbon_intensity_threshold=300.0)
        assert len(scheduler.select([job], cluster, dirty_late)) == 1

    def test_non_deferrable_jobs_start_immediately(self, cluster):
        scheduler = make_scheduler("carbon-aware")
        dirty = ctx(now_h=0.0, carbon_intensity_g_per_kwh=500.0, carbon_intensity_threshold=300.0)
        assert len(scheduler.select([make_job("a", 2)], cluster, dirty)) == 1

    def test_dirty_hour_cap_applied(self, cluster):
        scheduler = make_scheduler("backfill+carbon(cap=0.6)")
        dirty = ctx(now_h=0.0, carbon_intensity_g_per_kwh=500.0, carbon_intensity_threshold=300.0)
        decisions = scheduler.select([make_job("a", 2)], cluster, dirty)
        assert decisions[0].power_cap_fraction == pytest.approx(0.6)

    def test_no_dirty_cap_in_green_hours(self, cluster):
        scheduler = make_scheduler("backfill+carbon(cap=0.6)")
        green = ctx(now_h=0.0, carbon_intensity_g_per_kwh=100.0, carbon_intensity_threshold=300.0)
        decisions = scheduler.select([make_job("a", 2)], cluster, green)
        assert decisions[0].power_cap_fraction is None


class TestDeadlineAware:
    def test_edf_ordering(self, cluster):
        jobs = [
            make_job("late", 4, submit=0.0, deadline_h=50.0),
            make_job("soon", 4, submit=1.0, deadline_h=5.0),
            make_job("none", 4, submit=0.5),
        ]
        scheduler = make_scheduler("deadline-aware")
        # select() takes the queue already in the policy's order, as the
        # simulator keeps it.
        decisions = scheduler.select(sorted(jobs, key=scheduler.queue_key), cluster, ctx())
        assert [d.job.job_id for d in decisions][:2] == ["soon", "late"]

    def test_edf_ordering_in_the_simulator(self, cluster):
        # Submitted at one instant in non-EDF order; each job takes the whole
        # cluster, so the start times give the order the queue was kept in.
        jobs = [
            make_job("late", 8, deadline_h=50.0),
            make_job("soon", 8, deadline_h=5.0),
            make_job("none", 8),
        ]
        simulator = ClusterSimulator(
            cluster, make_scheduler("deadline-aware"), SimulationConfig(horizon_h=24.0)
        )
        result = simulator.run(jobs)
        starts = {record.job_id: record.start_time_h for record in result.job_records}
        assert starts == {"soon": 0.0, "late": 2.0, "none": 4.0}

    def test_uses_slack_to_defer_in_dirty_hours(self, cluster):
        scheduler = make_scheduler("deadline-aware")
        job = make_job("a", 2, submit=0.0, deadline_h=100.0)  # plenty of slack
        dirty = ctx(now_h=0.0, carbon_intensity_g_per_kwh=500.0, carbon_intensity_threshold=300.0)
        assert scheduler.select([job], cluster, dirty) == []

    def test_starts_when_slack_exhausted(self, cluster):
        scheduler = make_scheduler("edf+backfill+slack(margin=1.0)")
        job = make_job("a", 2, submit=0.0, deadline_h=4.0)  # must start by hour 2
        dirty = ctx(now_h=1.5, carbon_intensity_g_per_kwh=500.0, carbon_intensity_threshold=300.0)
        assert len(scheduler.select([job], cluster, dirty)) == 1


class TestStaticCapStage:
    def test_agreed_cap_takes_precedence_when_stricter(self, cluster):
        stage = StaticCapStage(cap_fraction=0.8)
        job = make_job("a", 1, power_cap_fraction=0.6)
        assert stage.apply(job, job.power_cap_fraction, cluster, ctx()) == pytest.approx(0.6)

    def test_policy_cap_when_job_cap_looser(self, cluster):
        stage = StaticCapStage(cap_fraction=0.7)
        job = make_job("a", 1, power_cap_fraction=0.9)
        assert stage.apply(job, job.power_cap_fraction, cluster, ctx()) == pytest.approx(0.7)

    def test_invalid_fraction(self):
        with pytest.raises(SchedulingError):
            StaticCapStage(cap_fraction=1.5)


class TestAdaptiveCapStage:
    def test_tightens_when_over_budget(self):
        stage = AdaptiveCapStage(power_budget_w=1000.0, step_fraction=0.1)
        jobs = [make_job("a", 4, utilization=1.0), make_job("b", 1, utilization=0.5)]
        caps = stage.update(jobs, 2000.0)
        assert min(caps.values()) < 1.0

    def test_relaxes_when_under_budget(self):
        stage = AdaptiveCapStage(power_budget_w=10_000.0, step_fraction=0.1)
        caps = stage.update([make_job("a", 4, power_cap_fraction=0.6)], 1000.0)
        assert caps["a"] > 0.6

    def test_never_below_min_cap(self):
        stage = AdaptiveCapStage(power_budget_w=1.0, min_cap_fraction=0.5, step_fraction=0.3)
        jobs = [make_job("a", 4)]
        for _ in range(10):
            caps = stage.update(jobs, 1e9)
        assert caps["a"] == pytest.approx(0.5)

    def test_forgets_finished_jobs(self):
        stage = AdaptiveCapStage(power_budget_w=1000.0)
        stage.update([make_job("a", 1)], 2000.0)
        caps = stage.update([make_job("b", 1)], 2000.0)
        assert "a" not in caps

    @pytest.mark.parametrize(
        "budget_w, kwargs",
        [(0.0, {}), (1000.0, {"min_cap_fraction": 0.0}), (1000.0, {"step_fraction": 0.6})],
    )
    def test_validation(self, budget_w, kwargs):
        with pytest.raises(SchedulingError):
            AdaptiveCapStage(budget_w, **kwargs)


class TestPowercapTradeoff:
    def test_monotone_savings_and_penalty(self):
        points = powercap_energy_tradeoff(cap_fractions=(1.0, 0.8, 0.6))
        savings = [p.energy_savings_pct for p in points]
        penalties = [p.runtime_penalty_pct for p in points]
        assert savings == sorted(savings)
        assert penalties == sorted(penalties)

    def test_moderate_caps_save_more_than_they_cost(self):
        points = powercap_energy_tradeoff(cap_fractions=(0.8, 0.7), utilization=1.0)
        for point in points:
            assert point.energy_savings_pct > point.runtime_penalty_pct

    def test_uncapped_point_is_neutral(self):
        point = powercap_energy_tradeoff(cap_fractions=(1.0,))[0]
        assert point.energy_savings_pct == pytest.approx(0.0, abs=1e-9)
        assert point.runtime_penalty_pct == pytest.approx(0.0, abs=1e-9)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(SchedulingError):
            powercap_energy_tradeoff(cap_fractions=(0.0,))
