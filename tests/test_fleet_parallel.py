"""Tests for process-parallel fleet stepping (repro.fleet.parallel).

The contract under test is *parity by construction*: routing stays in the
coordinator and both backends step identical per-site simulators against
identical shipped substrates, so a parallel run must be **bit-identical** to
the serial lockstep loop — same assignments, same per-site job records, same
totals.  Covers, per the perf issue's acceptance bar:

* hash-pinned serial == parallel parity across several routers (the pins
  deliberately duplicate ``tests/test_fleet.py`` so drift in either mode is
  caught) plus a composed per-site policy spec;
* the degenerate one-site fleet on the worker path vs.
  :meth:`~repro.experiments.ExperimentSession.simulate_policy`;
* spawn-started workers and a trace given out of submit order matching the
  serial run;
* the wire protocol: one message per worker per window, carrying trace
  positions and never a pickled job;
* worker death and worker-side exceptions surfacing as typed
  :class:`~repro.errors.FleetError`\\ s naming the hosted sites;
* the :class:`~repro.fleet.result.FleetStepTimings` breakdown;
* the post-horizon routing-context clamp (trailing jobs are routed at the
  last in-horizon window, not one hour past the end of the substrate series);
* the ``--workers`` wiring of ``greenhpc fleet``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import FleetError
from repro.experiments import ExperimentSession, get_scenario
from repro.fleet import FleetSimulator, FleetSpec, get_fleet
from repro.fleet.parallel import (
    FleetWorkerPool,
    SitePayload,
    build_site_simulator,
    fleet_start_method,
)
from repro.fleet.routing import Router, SiteSnapshot
from repro.parallel import ParallelConfig
from repro.scheduler.job import Job, JobState

SEED = 7
N_MONTHS = 2
HORIZON_H = 72.0
N_JOBS = 120
WORKERS = 4

#: Routers pinned on the seeded tri-site world.  The hashes duplicate the
#: serial pins in tests/test_fleet.py on purpose: if either stepping mode
#: drifts, exactly one of the two files starts failing and says which.
PINNED_PARALLEL_HASHES = {
    "round-robin": "12af48094a7c53997bae1d4c77c087fb2cfbc82151a76e171ff2201f7edb97dd",
    "least-queued": "b456ad124832b0dce2f8eccc9106a8b09175ada1ca5e27021f71c2795169ac47",
    "carbon-min": "091284e4e854228e5715e3a6ce68657dd2cb629a7f25f37d0a30fb12f7593e49",
    "carbon-min+free-gpus(min=48)": (
        "da2f670af5709a196eaf2e06abdbe9d697d187e6d8a7f14ed90b8741200f2277"
    ),
}

#: The composed per-site policy pinned for both stepping modes.
COMPOSED_POLICY = "backfill+carbon(cap=0.7)"
PINNED_COMPOSED_HASH = (
    "5dd0d956a09b5d5fbcb73a5251e0418a07d69fbf7db50ad7d2114b9703ac3808"
)


@pytest.fixture(scope="module")
def tri_world():
    """The seeded tri-site world: fleet, shared session, shared trace."""
    fleet = get_fleet("tri-site-small").with_member_overrides(n_months=N_MONTHS, seed=SEED)
    session = ExperimentSession(fleet.members[0])
    trace = session.job_trace(n_jobs=N_JOBS, horizon_h=HORIZON_H, spec=fleet.members[0])
    for member in fleet.members:
        session.scenario(member)
    return fleet, session, trace


def _run(fleet, session, trace, *, router=None, policy="backfill", workers=None):
    parallel = None if workers is None else ParallelConfig(n_workers=workers)
    return FleetSimulator(
        fleet,
        router=router,
        policy=policy,
        horizon_h=HORIZON_H,
        parallel=parallel,
        session=session,
    ).run(trace)


# ---------------------------------------------------------------------------
# Hash-pinned serial == parallel parity
# ---------------------------------------------------------------------------


class TestParallelParity:
    @pytest.mark.parametrize("router", sorted(PINNED_PARALLEL_HASHES))
    def test_workers_1_vs_4_bit_identical_and_pinned(self, tri_world, router):
        fleet, session, trace = tri_world
        serial = _run(fleet, session, trace, router=router, workers=1)
        parallel = _run(fleet, session, trace, router=router, workers=WORKERS)
        assert serial.step_timings.mode == "serial"
        assert parallel.step_timings.mode == "parallel"
        assert serial.digest() == PINNED_PARALLEL_HASHES[router]
        assert parallel.digest() == PINNED_PARALLEL_HASHES[router]
        assert parallel.assignments == serial.assignments

    def test_composed_policy_spec_bit_identical_and_pinned(self, tri_world):
        fleet, session, trace = tri_world
        serial = _run(
            fleet, session, trace, router="least-queued", policy=COMPOSED_POLICY
        )
        parallel = _run(
            fleet,
            session,
            trace,
            router="least-queued",
            policy=COMPOSED_POLICY,
            workers=WORKERS,
        )
        assert serial.digest() == PINNED_COMPOSED_HASH
        assert parallel.digest() == PINNED_COMPOSED_HASH

    def test_parallel_totals_and_power_series_match_serial(self, tri_world):
        fleet, session, trace = tri_world
        serial = _run(fleet, session, trace, router="carbon-min")
        parallel = _run(fleet, session, trace, router="carbon-min", workers=WORKERS)
        assert parallel.it_energy_kwh == serial.it_energy_kwh
        assert parallel.facility_energy_kwh == serial.facility_energy_kwh
        assert parallel.total_emissions_kg == serial.total_emissions_kg
        assert parallel.total_cost_usd == serial.total_cost_usd
        for serial_site, parallel_site in zip(serial.site_results, parallel.site_results):
            assert parallel_site.job_records == serial_site.job_records
            np.testing.assert_array_equal(
                parallel_site.it_power_w, serial_site.it_power_w
            )
            np.testing.assert_array_equal(
                parallel_site.facility_power_w, serial_site.facility_power_w
            )

    def test_input_trace_left_pristine_by_parallel_run(self, tri_world):
        fleet, session, trace = tri_world
        before = [(job.job_id, job.state, job.submit_time_h) for job in trace]
        _run(fleet, session, trace, router="round-robin", workers=WORKERS)
        assert [(job.job_id, job.state, job.submit_time_h) for job in trace] == before

    def test_reversed_trace_matches_serial_and_stays_in_caller_order(self, tri_world):
        # Trace positions index the run's sorted copy, not the caller's list:
        # a worker that read the caller's order would submit other jobs.
        fleet, session, trace = tri_world
        reversed_trace = list(reversed(trace))
        serial = _run(fleet, session, reversed_trace, router="least-queued")
        parallel = _run(fleet, session, reversed_trace, router="least-queued", workers=2)
        assert parallel.digest() == serial.digest()
        assert [job.job_id for job in reversed_trace] == [job.job_id for job in trace][::-1]
        assert all(job.state is JobState.PENDING for job in reversed_trace)

    def test_spawn_started_workers_match_serial(self, tri_world, monkeypatch):
        # Under spawn the payloads and the trace are pickled into each
        # worker instead of inherited.
        fleet, session, _ = tri_world
        serial = FleetSimulator(fleet, horizon_h=24.0, session=session).run(n_jobs=200)
        monkeypatch.setattr("repro.fleet.parallel.fleet_start_method", lambda: "spawn")
        spawned = FleetSimulator(
            fleet, horizon_h=24.0, parallel=ParallelConfig(n_workers=2), session=session
        ).run(n_jobs=200)
        assert spawned.step_timings.mode == "parallel"
        assert spawned.digest() == serial.digest()


# ---------------------------------------------------------------------------
# Degenerate one-site fleet on the worker path
# ---------------------------------------------------------------------------


class TestDegenerateParallelParity:
    def test_one_site_parallel_fleet_matches_simulate_policy(self):
        spec = get_scenario("supercloud-small").replace(n_months=N_MONTHS, seed=SEED)
        session = ExperimentSession(spec)
        single = session.simulate_policy("backfill", n_jobs=80, horizon_h=HORIZON_H)
        fleet = FleetSpec(name="solo-parallel-test", members=(spec,))
        # An explicit multi-worker request parallelises even a one-site fleet
        # (the pool caps the process count at the number of sites).
        fleet_result = FleetSimulator(
            fleet,
            policy="backfill",
            horizon_h=HORIZON_H,
            parallel=ParallelConfig(n_workers=2),
            session=session,
        ).run(n_jobs=80)
        assert fleet_result.step_timings.mode == "parallel"
        assert fleet_result.step_timings.n_workers == 1
        (site_result,) = fleet_result.site_results
        assert site_result.job_records == single.job_records
        np.testing.assert_array_equal(site_result.it_power_w, single.it_power_w)
        np.testing.assert_array_equal(
            site_result.facility_power_w, single.facility_power_w
        )
        assert fleet_result.facility_energy_kwh == single.facility_energy_kwh
        assert fleet_result.total_emissions_kg == single.total_emissions_kg


# ---------------------------------------------------------------------------
# Worker failure paths
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pool_payloads(tri_world):
    fleet, session, _ = tri_world
    return FleetSimulator(fleet, horizon_h=24.0, session=session)._site_payloads()


class TestWorkerFailures:
    def test_dead_worker_raises_fleet_error_naming_its_sites(self, pool_payloads):
        with FleetWorkerPool(pool_payloads, [], 2) as pool:
            pool.begin()
            victim = pool.workers[0]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            with pytest.raises(FleetError, match="supercloud-small") as excinfo:
                pool.advance(1.0, 1.0, {})
            message = str(excinfo.value)
            assert "cannot continue" in message
            for name in victim.site_names:
                assert repr(name) in message

    def test_worker_side_exception_surfaces_as_fleet_error(self, pool_payloads):
        job = Job(job_id="dup", user_id="u", n_gpus=1, duration_h=1.0, submit_time_h=0.0)
        with FleetWorkerPool(pool_payloads, [job, job], 2) as pool:
            pool.begin()
            # A deliberately invalid window: submitting both trace positions
            # to one site raises the duplicate id inside the worker, which
            # replies to the advance that carried them with the error.
            with pytest.raises(FleetError, match="duplicate job id 'dup'"):
                pool.advance(1.0, 1.0, {0: [0, 1]})

    def test_failed_worker_refuses_further_exchanges(self, pool_payloads):
        with FleetWorkerPool(pool_payloads, [], 2) as pool:
            pool.begin()
            pool.workers[0].process.kill()
            pool.workers[0].process.join(timeout=5.0)
            with pytest.raises(FleetError):
                pool.advance(1.0, 1.0, {})
            with pytest.raises(FleetError, match="already failed"):
                pool.snapshot(1.0, {})

    def test_unbuildable_site_fails_at_start(self, pool_payloads):
        # A horizon longer than the member's substrate series cannot be
        # hosted; the build acknowledgement forwards the construction error.
        bad = [
            SitePayload(
                index=p.index,
                spec=p.spec,
                policy=p.policy,
                horizon_h=1e9,
                power_cap_fraction=p.power_cap_fraction,
                weather_hourly_c=p.weather_hourly_c,
                grid=p.grid,
            )
            for p in pool_payloads
        ]
        with pytest.raises(FleetError, match="cannot host"):
            with FleetWorkerPool(bad, [], 2):
                pass


# ---------------------------------------------------------------------------
# The worker protocol beyond the lockstep loop
# ---------------------------------------------------------------------------


class TestWorkerProtocol:
    def test_one_message_per_worker_per_window_and_no_jobs_sent(
        self, tri_world, monkeypatch
    ):
        fleet, session, trace = tri_world
        trailing = [
            Job(job_id=f"trailing-{i}", user_id="u", n_gpus=1, duration_h=1.0,
                submit_time_h=HORIZON_H + 1.0 + 10.0 * i)
            for i in range(2)
        ]
        sent = []
        send = FleetWorkerPool._send

        def recording_send(self, worker, message):
            sent.append((worker.site_indices, message))
            send(self, worker, message)

        monkeypatch.setattr(FleetWorkerPool, "_send", recording_send)
        jobs = list(trace) + trailing
        result = _run(fleet, session, jobs, router="least-queued", workers=2)

        def holds_job(value):
            if isinstance(value, Job):
                return True
            if isinstance(value, dict):
                return any(holds_job(v) for v in value.values())
            if isinstance(value, (tuple, list)):
                return any(holds_job(v) for v in value)
            return False

        assert [message[0] for _, message in sent[:2]] == ["begin", "begin"]
        after_begin = sent[2:]
        assert not any(holds_job(message) for _, message in after_begin)
        hosted = {indices for indices, _ in after_begin}
        assert len(hosted) == 2
        for indices in hosted:
            commands = [m[0] for i, m in after_begin if i == indices]
            assert commands == ["advance"] * int(HORIZON_H) + ["snapshot", "finalize"]
        # Every trace position is sent once, to the worker hosting its site.
        sent_positions = sorted(
            position
            for indices, message in after_begin
            for index, positions in message[-1].items()
            for position in positions
            if index in indices
        )
        assert sent_positions == list(range(len(jobs)))
        records = {
            record.job_id: (index, record)
            for index, site in enumerate(result.site_results)
            for record in site.job_records
        }
        sites = {a.job_id: a.site_index for a in result.assignments}
        for job in trailing:
            index, record = records[job.job_id]
            assert index == sites[job.job_id]
            assert record.start_time_h is None
            assert record.completed is False

    def test_mid_run_snapshot(self, pool_payloads):
        with FleetWorkerPool(pool_payloads, [], 2) as pool:
            assert pool.n_workers == 2
            states = pool.begin()
            assert sorted(states) == [0, 1, 2]
            pool.advance(3.0, 3.0, {})
            again = pool.snapshot(3.0, {})
            assert sorted(again) == [0, 1, 2]

    def test_states_match_inprocess_simulator(self, pool_payloads):
        payload = pool_payloads[0]
        reference = build_site_simulator(payload)
        reference.begin()
        reference.advance(2.0)
        with FleetWorkerPool(pool_payloads, [], 2) as pool:
            pool.begin()
            states = pool.advance(2.0, 2.0, {})
        expected = SiteSnapshot.of(reference, payload.index, payload.spec.name, 2.0)
        assert states[payload.index] == expected

    def test_worker_count_capped_at_sites_and_close_idempotent(self, pool_payloads):
        pool = FleetWorkerPool(pool_payloads, [], 64)
        assert pool.n_workers == len(pool_payloads)
        with pool:
            pool.begin()
        pool.close()  # second close is a no-op
        assert all(not w.process.is_alive() for w in pool.workers)

    def test_empty_payloads_raise(self):
        with pytest.raises(FleetError, match="at least one site payload"):
            FleetWorkerPool([], [], 2)

    def test_start_method_is_a_registered_one(self):
        import multiprocessing as mp

        assert fleet_start_method() in mp.get_all_start_methods()


# ---------------------------------------------------------------------------
# Step timings
# ---------------------------------------------------------------------------


class TestStepTimings:
    def test_serial_and_parallel_breakdowns(self, tri_world):
        fleet, session, trace = tri_world
        serial = _run(fleet, session, trace, router="round-robin")
        parallel = _run(fleet, session, trace, router="round-robin", workers=WORKERS)
        for result, mode, workers in (
            (serial, "serial", 1),
            (parallel, "parallel", min(WORKERS, fleet.n_sites)),
        ):
            timings = result.step_timings
            assert timings.mode == mode
            assert timings.n_workers == workers
            assert timings.n_windows == int(HORIZON_H)
            assert len(timings.site_advance_s) == fleet.n_sites
            assert timings.total_s > 0
            assert timings.total_s >= timings.route_s
            assert timings.max_site_advance_s == max(timings.site_advance_s)


# ---------------------------------------------------------------------------
# Post-horizon routing-context clamp
# ---------------------------------------------------------------------------


class _RecordingRouter(Router):
    """Routes everything to site 0 and records every ``now_h`` it was shown."""

    name = "recording"

    def __init__(self):
        self.now_hours = []

    def begin_fleet(self, n_sites):
        pass

    def select(self, job, sites, now_h):
        self.now_hours.append(now_h)
        return 0


class TestPostHorizonClamp:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_trailing_jobs_routed_at_last_in_horizon_window(self, tri_world, workers):
        fleet, session, _ = tri_world
        jobs = [
            Job(job_id="in-window", user_id="u", n_gpus=1, duration_h=1.0,
                submit_time_h=1.5),
            Job(job_id="at-horizon", user_id="u", n_gpus=1, duration_h=1.0,
                submit_time_h=HORIZON_H),
            Job(job_id="past-horizon", user_id="u", n_gpus=1, duration_h=1.0,
                submit_time_h=HORIZON_H + 40.0),
        ]
        router = _RecordingRouter()
        parallel = None if workers is None else ParallelConfig(n_workers=workers)
        result = FleetSimulator(
            fleet,
            router=router,
            horizon_h=HORIZON_H,
            parallel=parallel,
            session=session,
        ).run(jobs)
        # The in-window job sees its own window; both trailing jobs see the
        # clamped context of the last in-horizon window, never hour 72 (the
        # substrate series end at the horizon boundary).
        assert router.now_hours == [1.0, HORIZON_H - 1.0, HORIZON_H - 1.0]
        trailing = {a.job_id: a for a in result.assignments if a.dispatch_hour == 72}
        assert set(trailing) == {"at-horizon", "past-horizon"}
        by_id = {
            r.job_id: r
            for site_result in result.site_results
            for r in site_result.job_records
        }
        assert by_id["past-horizon"].completed is False
        assert by_id["in-window"].completed is True


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------


class TestFleetWorkersCli:
    def test_fleet_workers_flag_steps_in_parallel(self, capsys):
        exit_code = main(
            [
                "--months", str(N_MONTHS), "--seed", str(SEED), "--workers", "2",
                "fleet", "--jobs", "40", "--horizon-days", "2.0", "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scalars"]["step_workers"] == 2
        assert any("parallel x2" in note for note in payload["notes"])

    def test_workers_env_var_drives_fleet_stepping(self, capsys, monkeypatch):
        monkeypatch.setenv("GREENHPC_WORKERS", "2")
        exit_code = main(
            [
                "--months", str(N_MONTHS), "--seed", str(SEED),
                "fleet", "--jobs", "40", "--horizon-days", "2.0", "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scalars"]["step_workers"] == 2

    def test_sweep_workers_flag_keeps_fleet_points_serial(self, capsys):
        # The sweep fans out across its points; each point steps in-process.
        exit_code = main(
            [
                "--months", str(N_MONTHS), "--seed", str(SEED), "--workers", "2",
                "sweep", "--experiments", "fleet",
                "--grid", "router=round-robin,carbon-min",
                "--grid", "jobs=40", "--grid", "horizon_days=2", "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["step_workers"] for row in payload["rows"]] == [1, 1]

    def test_serial_cli_run_reports_serial_stepping(self, capsys):
        exit_code = main(
            [
                "--months", str(N_MONTHS), "--seed", str(SEED),
                "fleet", "--jobs", "40", "--horizon-days", "2.0", "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scalars"]["step_workers"] == 1
        assert any("serial" in note for note in payload["notes"])
