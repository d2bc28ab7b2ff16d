"""Serve checkpoints as input journals: replay parity, failure paths, stepping misuse.

The headline property: a session checkpointed mid-run and restored by
replaying its journal on a fresh session manager (a restarted daemon), then
advanced to the horizon, equals the uninterrupted session bit for bit: its
job records, IT and facility power series, tick times and every telemetry
row.  This holds across plain policies, stateful composed pipelines (the
adaptive power-cap observer), a deep client-submitted queue in either
arrival order, a session at a fleet member's site, client jobs with future
submit times, a job submitted at the instant of the last processed event,
and submissions after a restore.
"""

from __future__ import annotations

import dataclasses
import json
import math
import threading
from pathlib import Path

import pytest

from repro.cluster.cooling import CoolingModel
from repro.cluster.resources import Cluster
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.levers import make_scheduler
from repro.errors import CheckpointError, SimulationError, SteppingError
from repro.experiments import ExperimentSession
from repro.fleet import get_fleet
from repro.scheduler.job import STATIC_FIELDS, Job
from repro.serve.checkpoint import CHECKPOINT_FORMAT_VERSION, CheckpointStore
from repro.serve.session import ServeSession, SessionManager

HORIZON_H = 7 * 24.0

#: The horizon of the replayed serve sessions.
SESSION_HORIZON_H = 96

POLICIES = [
    "backfill",
    "backfill+adaptive(budget_w=6000)",
    "edf+backfill+carbon(cap=0.7)",
    "sjf+backfill+renewable(min_share=0.3)+cap(fraction=0.75)",
    "backfill+carbon(cap=0.7)+budget",
]


def _build_simulator(world: ExperimentSession, policy: str) -> ClusterSimulator:
    spec = world.spec
    scenario = world.scenario()
    return ClusterSimulator(
        Cluster(spec.facility, gpu_model=spec.workload.gpu_model),
        make_scheduler(policy),
        SimulationConfig(horizon_h=HORIZON_H),
        weather_hourly_c=scenario.weather_hourly_c,
        cooling=CoolingModel(),
        grid=scenario.grid,
    )


@pytest.fixture(scope="module")
def world() -> ExperimentSession:
    return ExperimentSession("supercloud-small")


def _job(job_id, submit_time_h, **fields):
    return {
        "job_id": job_id,
        "user_id": "client",
        "n_gpus": 4,
        "duration_h": 6.0,
        "submit_time_h": submit_time_h,
        **fields,
    }


def _now_h(session: ServeSession) -> float:
    """The instant of the session's last processed event."""
    return session.simulator.snapshot()["now_h"]


#: Client submissions made just before advancing to the keyed hour, as
#: functions of the live session.  Hours 10 and 20 submit before the
#: restore at hour 48, hours 55 and 70 after it.
CLIENT_JOBS = {
    # Future submit times, one with a deadline, one capped and deferrable.
    10: lambda s: [
        _job("future-a", 30.0, deadline_h=60.0, tags={"kind": "training"}),
        _job("future-b", 44.5, n_gpus=8, utilization=0.6, power_cap_fraction=0.8,
             deferrable=True, max_defer_h=12.0),
    ],
    # At the instant of the last processed event: that instant drains twice.
    20: lambda s: [_job("same-instant", _now_h(s), n_gpus=16, duration_h=3.0)],
    # After the restore: one at the last instant, one in the future.
    55: lambda s: [_job("after-restore", _now_h(s), n_gpus=2), _job("late", 80.0)],
    70: lambda s: [_job("last", 75.25, priority=3, queue_name="debug")],
}


def _drive(policy: str, store_dir: Path, *, restore_at=None):
    """A serve session advanced hour by hour with CLIENT_JOBS, then finalized.

    With ``restore_at`` the session is checkpointed at that hour and the
    rest runs on the session a fresh manager (a restarted daemon) restores.
    Returns the final session.
    """
    manager = SessionManager()
    session = manager.create_session(
        {
            "session_id": "replayed",
            "scenario": "supercloud-small",
            "policy": policy,
            "horizon_h": SESSION_HORIZON_H,
            "preload_jobs": 150,
        }
    )
    store = CheckpointStore(store_dir, keep=100)
    for hour in range(1, SESSION_HORIZON_H + 1):
        if hour in CLIENT_JOBS:
            session.submit_jobs(CLIENT_JOBS[hour](session))
        session.advance_to(float(hour))
        if hour == restore_at:
            session.checkpoint(store)
            manager = SessionManager()
            assert manager.restore_all(store) == ["replayed"]
            session = manager.get("replayed")
            assert session.advanced_to_h == float(hour)
    session.finalize()
    return session


def _assert_same_run(resumed: ServeSession, reference: ServeSession) -> None:
    got, want = resumed.result, reference.result
    assert got.job_records == want.job_records
    assert got.it_power_w.tolist() == want.it_power_w.tolist()
    assert got.facility_power_w.tolist() == want.facility_power_w.tolist()
    assert got.tick_times_h.tolist() == want.tick_times_h.tolist()
    assert resumed.ticks_since(0) == reference.ticks_since(0)
    assert resumed.result_summary == reference.result_summary


class TestReplayParity:
    """A replayed restore equals the uninterrupted session, bit for bit."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_restored_equals_uninterrupted(self, tmp_path, policy):
        reference = _drive(policy, tmp_path / "reference")
        resumed = _drive(policy, tmp_path / "resumed", restore_at=48)
        # Every client job ran, so each one's replay shows in the records.
        started = {r.job_id for r in reference.result.job_records if r.start_time_h is not None}
        client_ids = [fields["job_id"] for _, fields in reference._journal]
        assert len(client_ids) == 6 and set(client_ids) <= started
        assert len(reference.ticks_since(0)) == SESSION_HORIZON_H + 1
        _assert_same_run(resumed, reference)

    def test_a_restore_at_a_submit_hour_replays_that_submit(self, tmp_path):
        """The checkpoint hour's own client job is the journal's last entry."""
        reference = _drive("backfill", tmp_path / "reference")
        resumed = _drive("backfill", tmp_path / "resumed", restore_at=20)
        _assert_same_run(resumed, reference)

    def test_replay_needs_each_entry_at_its_own_cursor(self, tmp_path):
        """Submitting the journal up front would drain a same-instant job's instant once.

        The live session submits a job at t=0 after advancing to t=1, so the
        tick at t=0 has already sampled an idle cluster and the job starts
        in a second round at t=0.  The replay reproduces that; a run given
        the job before advancing samples it running at t=0.
        """

        def session(manager):
            return manager.create_session(
                {"session_id": "a", "scenario": "supercloud-small", "horizon_h": 6}
            )

        live = session(SessionManager())
        live.advance_to(1.0)
        assert _now_h(live) == 0.0
        live.submit_jobs([_job("c1", 0.0)])
        live.advance_to(4.0)
        store = CheckpointStore(tmp_path)
        live.checkpoint(store)
        manager = SessionManager()
        assert manager.restore_all(store) == ["a"]
        assert manager.get("a").ticks_since(0) == live.ticks_since(0)
        assert live.ticks_since(0)[0]["n_running"] == 0

        upfront = session(SessionManager())
        upfront.submit_jobs([_job("c1", 0.0)])
        upfront.advance_to(4.0)
        assert upfront.ticks_since(0)[0]["n_running"] == 1
        assert upfront.ticks_since(0)[1:] == live.ticks_since(0)[1:]


def _restarted(session: ServeSession, store_dir: Path) -> ServeSession:
    """``session`` checkpointed and restored by a fresh manager (a restarted daemon)."""
    store = CheckpointStore(store_dir)
    session.checkpoint(store)
    manager = SessionManager()
    assert manager.restore_all(store) == [session.session_id]
    restored = manager.get(session.session_id)
    assert restored.advanced_to_h == session.advanced_to_h
    return restored


def _client_fields(job: Job) -> dict:
    return {name: getattr(job, name) for name in STATIC_FIELDS}


def _session(policy="backfill", preload_jobs=150, **params) -> ServeSession:
    return SessionManager().create_session(
        {
            "session_id": "a",
            "scenario": "supercloud-small",
            "policy": policy,
            "horizon_h": HORIZON_H,
            "preload_jobs": preload_jobs,
            **params,
        }
    )


class TestRestoreParity:
    """restore + finalize == the uninterrupted session, over a week's horizon."""

    @pytest.mark.parametrize(
        "policy",
        [
            "backfill",
            "carbon-aware",
            # A composed pipeline whose adaptive-cap stage is a stateful
            # observer: replay must rebuild its caps and energy ledger.
            "backfill+adaptive(budget_w=25000)",
        ],
    )
    def test_policy_parity_through_json(self, tmp_path, policy):
        reference = _session(policy)
        reference.finalize()
        interrupted = _session(policy)
        interrupted.advance_to(48.0)
        resumed = _restarted(interrupted, tmp_path)
        resumed.finalize()
        _assert_same_run(resumed, reference)

    @pytest.mark.parametrize(
        "policy",
        ["edf+backfill+carbon(cap=0.7)", "sjf+backfill+renewable(min_share=0.3)"],
    )
    @pytest.mark.parametrize("arrival", ["trace-order", "same-instant-ids-reversed"])
    def test_non_submit_ordering_parity_on_a_deep_queue(self, world, tmp_path, policy, arrival):
        """The replayed queue keeps the policy's order, not the arrival order."""
        trace = world.job_trace(n_jobs=600, horizon_h=HORIZON_H)
        if arrival == "same-instant-ids-reversed":
            # Submits floored to the hour, listed so that the jobs of one
            # instant arrive in descending job id.
            floored = [
                dataclasses.replace(job, submit_time_h=float(math.floor(job.submit_time_h)))
                for job in sorted(trace, key=lambda job: job.job_id, reverse=True)
            ]
            trace = sorted(floored, key=lambda job: job.submit_time_h)
        jobs = [_client_fields(job) for job in trace]

        reference = _session(policy, preload_jobs=0)
        reference.submit_jobs(jobs)
        reference.finalize()
        interrupted = _session(policy, preload_jobs=0)
        interrupted.submit_jobs(jobs)
        interrupted.advance_to(96.0)
        assert interrupted.simulator.n_pending >= 15
        resumed = _restarted(interrupted, tmp_path)
        resumed.finalize()
        _assert_same_run(resumed, reference)

    def test_fleet_member_parity(self, tmp_path):
        """A session relocated to a fleet member's site restores bit-identically too."""
        member = get_fleet("duo-climate-small").members[1]  # the desert twin
        reference = _session(preload_jobs=100, site="phoenix-az")
        assert reference.spec.site == member.site != _session().spec.site
        reference.finalize()
        interrupted = _session(preload_jobs=100, site="phoenix-az")
        interrupted.advance_to(24.0)
        resumed = _restarted(interrupted, tmp_path)
        resumed.finalize()
        _assert_same_run(resumed, reference)

    def test_restore_then_submit_continues(self, tmp_path):
        """A restored session accepts further submissions, and journals them."""
        interrupted = _session()
        interrupted.advance_to(24.0)
        resumed = _restarted(interrupted, tmp_path)
        assert resumed.submit_jobs([_job("late", 30.0, n_gpus=1, duration_h=2.0)]) == 1
        assert [fields["job_id"] for _, fields in resumed._journal] == ["late"]
        resumed.finalize()
        late = next(r for r in resumed.result.job_records if r.job_id == "late")
        assert late.completed

    def test_tick_series_preserved(self, tmp_path):
        """The restored run's power series covers the whole horizon seamlessly."""
        reference = _session()
        reference.finalize()
        interrupted = _session()
        interrupted.advance_to(60.0)
        resumed = _restarted(interrupted, tmp_path)
        resumed.finalize()
        assert len(resumed.result.it_power_w) == HORIZON_H + 1
        assert resumed.result.it_power_w.tolist() == reference.result.it_power_w.tolist()
        assert resumed.result.facility_energy_kwh == reference.result.facility_energy_kwh

    @pytest.mark.parametrize("policy", ["backfill", "backfill+adaptive(budget_w=6000)"])
    def test_submitted_jobs_restore_bit_identically(self, tmp_path, policy):
        """A submitted job finished before the checkpoint hour, another runs across it."""
        submitted = [
            _job("sub-done", 30.0, n_gpus=1, duration_h=2.0, tags={"kind": "inference"}),
            _job("sub-running", 40.0, n_gpus=2, duration_h=20.0, utilization=0.6,
                 deadline_h=120.0, power_cap_fraction=0.8),
        ]
        reference = _session(policy)
        reference.submit_jobs(submitted)
        reference.finalize()
        records = {r.job_id: r for r in reference.result.job_records}
        assert records["sub-done"].finish_time_h < 48.0
        assert records["sub-running"].start_time_h < 48.0 < records["sub-running"].finish_time_h

        interrupted = _session(policy)
        interrupted.submit_jobs(submitted)
        interrupted.advance_to(48.0)
        resumed = _restarted(interrupted, tmp_path)
        resumed.finalize()
        _assert_same_run(resumed, reference)


class TestJournalShape:
    """A checkpoint carries the client jobs and the cursor, never simulator state."""

    def test_journal_holds_client_jobs_at_their_cursors(self, tmp_path):
        manager = SessionManager()
        session = manager.create_session(
            {"session_id": "a", "scenario": "supercloud-small", "preload_jobs": 100}
        )
        session.advance_to(5.0)
        session.submit_jobs([_job("c1", 7.0)])
        session.advance_to(12.0)
        store = CheckpointStore(tmp_path)
        payload = store.load(session.checkpoint(store))
        assert payload["format"] == CHECKPOINT_FORMAT_VERSION == 4
        assert set(payload) == {"format", "meta", "journal", "advanced_to_h", "cursor"}
        (entry,) = payload["journal"]
        assert entry[0] == 5.0
        assert list(entry[1]) == list(STATIC_FIELDS)
        assert entry[1]["job_id"] == "c1" and entry[1]["submit_time_h"] == 7.0
        assert payload["advanced_to_h"] == 12.0
        assert payload["cursor"] == session.simulator.snapshot()
        assert payload["cursor"]["ticks"] == len(session.ticks_since(0)) == 12
        # No preload job, event or telemetry row is written.
        assert len(json.dumps(payload)) < 2000

    def test_each_journal_is_a_prefix_of_the_next(self, tmp_path):
        session = SessionManager().create_session(
            {
                "session_id": "a",
                "scenario": "supercloud-small",
                "horizon_h": SESSION_HORIZON_H,
                "preload_jobs": 150,
            }
        )
        store = CheckpointStore(tmp_path, keep=100)
        for hour in range(1, SESSION_HORIZON_H):
            if hour in CLIENT_JOBS:
                session.submit_jobs(CLIENT_JOBS[hour](session))
            session.advance_to(float(hour), checkpoint_every_h=8.0, store=store)
        journals = [store.load(path)["journal"] for path in store.checkpoints("a")]
        assert len(journals) == 11
        for earlier, later in zip(journals, journals[1:]):
            assert later[: len(earlier)] == earlier
        assert [fields["job_id"] for _, fields in journals[-1]] == [
            "future-a", "future-b", "same-instant", "after-restore", "late", "last"
        ]

    def test_replay_writes_no_checkpoints(self, tmp_path):
        manager = SessionManager()
        session = manager.create_session(
            {"session_id": "a", "scenario": "supercloud-small", "preload_jobs": 50}
        )
        session.submit_jobs([_job("c1", 3.0)])
        session.advance_to(30.0)
        store = CheckpointStore(tmp_path)
        session.checkpoint(store)
        before = sorted(tmp_path.iterdir())
        restored = SessionManager()
        assert restored.restore_all(store) == ["a"]
        assert sorted(tmp_path.iterdir()) == before
        assert restored.get("a").checkpoint_count == 1
        assert restored.get("a").last_checkpoint_h == 30.0

    def test_snapshot_is_a_pure_cursor_read(self, world):
        simulator = _build_simulator(world, "backfill")
        simulator.begin(world.job_trace(n_jobs=150, horizon_h=HORIZON_H))
        simulator.advance(48.0)
        first = simulator.snapshot()
        assert simulator.snapshot() == first
        assert first["advanced_to"] == 48.0 and first["ticks"] == 48
        assert first["jobs"] == 150
        assert first["pending"] == simulator.n_pending
        assert first["running"] == simulator.n_running
        assert first["it_power_w"] == simulator.current_it_power_w


def _checkpointed(tmp_path, hours=(24.0, 48.0)):
    """A store holding one checkpoint of session ``a`` per hour in ``hours``."""
    session = SessionManager().create_session(
        {"session_id": "a", "scenario": "supercloud-small", "preload_jobs": 100}
    )
    store = CheckpointStore(tmp_path)
    session.submit_jobs([_job("c1", 30.0)])
    for hour in hours:
        session.advance_to(hour)
        session.checkpoint(store)
    return store


def _truncate(path):
    path.write_text(path.read_text()[:40])


def _garbage(path):
    path.write_bytes(b"\x00\xffnot json at all")


def _format_3(path):
    """The simulator-snapshot envelope of format 3, which this build refuses."""
    meta = json.loads(path.read_text())["meta"]
    envelope = {"format": 3, "meta": meta, "snapshot": {"version": 3}, "ticks": []}
    path.write_text(json.dumps(envelope))


def _rewrite(mutate):
    def apply(path):
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))

    return apply


def _no_meta_policy(payload):
    del payload["meta"]["policy"]


def _foreign_cursor(payload):
    payload["cursor"]["running"] += 1


def _invalid_journal_job(payload):
    payload["journal"][0][1]["n_gpus"] = "many"


def _journal_job_in_the_past(payload):
    payload["journal"][0][0] = 40.0  # replay would now submit c1 at t=30 after t=40


class TestFailurePaths:
    """A bad newest checkpoint falls back to an older one; a bad only one is skipped."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            _truncate,
            _garbage,
            _format_3,
            _rewrite(_no_meta_policy),
            _rewrite(_foreign_cursor),
            _rewrite(_invalid_journal_job),
            _rewrite(_journal_job_in_the_past),
        ],
        ids=[
            "truncated",
            "garbage",
            "format-3",
            "no-policy",
            "diverged-cursor",
            "invalid-job",
            "job-in-the-past",
        ],
    )
    def test_unrestorable_newest_falls_back_to_an_older_checkpoint(self, tmp_path, corrupt):
        store = _checkpointed(tmp_path)
        newest = store.checkpoints("a")[-1]
        corrupt(newest)
        manager = SessionManager()
        assert manager.restore_all(store) == ["a"]
        assert manager.get("a").advanced_to_h == 24.0
        # Unrestorable files are left on disk.
        assert newest.exists()

    @pytest.mark.parametrize(
        "corrupt", [_truncate, _garbage, _format_3], ids=["truncated", "garbage", "format-3"]
    )
    def test_the_only_checkpoint_unreadable_restores_nothing(self, tmp_path, corrupt):
        store = _checkpointed(tmp_path, hours=(24.0,))
        corrupt(store.checkpoints("a")[0])
        assert SessionManager().restore_all(store) == []

    def test_format_3_is_refused_with_a_typed_error(self, tmp_path):
        store = _checkpointed(tmp_path, hours=(24.0,))
        (path,) = store.checkpoints("a")
        _format_3(path)
        with pytest.raises(CheckpointError, match="format version 3"):
            store.load(path)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (_no_meta_policy, "malformed checkpoint"),
            (_foreign_cursor, "diverged"),
            (_invalid_journal_job, "malformed checkpoint"),
            (_journal_job_in_the_past, "malformed checkpoint"),
        ],
        ids=["no-policy", "diverged-cursor", "invalid-job", "job-in-the-past"],
    )
    def test_from_checkpoint_raises_checkpoint_error(self, tmp_path, mutate, match):
        store = _checkpointed(tmp_path, hours=(24.0,))
        payload = store.load(store.checkpoints("a")[-1])
        mutate(payload)
        with pytest.raises(CheckpointError, match=match):
            ServeSession.from_checkpoint(payload, ExperimentSession())


class TestCheckpointShape:
    def test_version_1_payloads_are_refused(self, tmp_path):
        """The simulator-snapshot envelopes of formats 1 and 2 are refused like format 3."""
        for version in (1, 2):
            store = CheckpointStore(tmp_path / f"format-{version}")
            envelope = {"format": version, "meta": {}, "snapshot": {"version": version}, "ticks": []}
            path = store.save("a", envelope)
            with pytest.raises(CheckpointError, match=f"format version {version}"):
                store.load(path)
            assert SessionManager().restore_all(store) == []


def _drop(*path):
    """Mutation deleting the field at ``path`` of a checkpoint payload."""

    def mutate(payload):
        *parents, key = path
        for parent in parents:
            payload = payload[parent]
        del payload[key]

    return mutate


def _format_2_envelope(payload):
    payload["format"] = 2


class TestCorruptCheckpoints:
    """A structurally bad checkpoint is skipped, never a crash at daemon start."""

    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory):
        session = SessionManager().create_session(
            {"session_id": "a", "scenario": "supercloud-small", "preload_jobs": 200}
        )
        session.submit_jobs([_job("c1", 30.0)])
        session.advance_to(48.0)
        store = CheckpointStore(tmp_path_factory.mktemp("ckpt"))
        session.checkpoint(store)
        payload = store.load(store.checkpoints("a")[-1])
        assert payload["journal"] and payload["cursor"]["running"]
        return payload

    def _restore_all(self, tmp_path, payload):
        (tmp_path / "a.00000000.json").write_text(json.dumps(payload))
        return SessionManager().restore_all(CheckpointStore(tmp_path))

    def test_intact_checkpoint_restores(self, tmp_path, payload):
        assert self._restore_all(tmp_path, payload) == ["a"]

    @pytest.mark.parametrize(
        "mutate",
        [_drop("meta", "policy"), _format_2_envelope, _drop("journal"), _drop("cursor")],
        ids=["no-policy", "format-2", "no-journal", "no-cursor"],
    )
    def test_bad_checkpoint_is_skipped(self, tmp_path, payload, mutate):
        bad = json.loads(json.dumps(payload))
        mutate(bad)
        assert self._restore_all(tmp_path, bad) == []


class TestSteppingErrors:
    """Misusing the stepping API raises typed SteppingErrors (satellite b)."""

    def test_submit_before_begin(self, world):
        simulator = _build_simulator(world, "backfill")
        with pytest.raises(SteppingError, match="before begin"):
            simulator.submit(Job("j", "u", n_gpus=1, duration_h=1.0, submit_time_h=0.0))

    def test_advance_before_begin(self, world):
        simulator = _build_simulator(world, "backfill")
        with pytest.raises(SteppingError, match="before begin"):
            simulator.advance(1.0)

    def test_begin_twice(self, world):
        simulator = _build_simulator(world, "backfill")
        simulator.begin()
        with pytest.raises(SteppingError, match="twice"):
            simulator.begin()

    def test_finalize_twice(self, world):
        simulator = _build_simulator(world, "backfill")
        simulator.begin()
        simulator.finalize()
        with pytest.raises(SteppingError, match="twice"):
            simulator.finalize()

    def test_advance_behind_cursor(self, world):
        simulator = _build_simulator(world, "backfill")
        simulator.begin()
        simulator.advance(10.0)
        simulator.advance(10.0)  # re-advancing to the same bound is a no-op
        with pytest.raises(SteppingError, match="behind the cursor"):
            simulator.advance(5.0)

    def test_submit_in_the_past(self, world):
        simulator = _build_simulator(world, "backfill")
        simulator.begin()
        simulator.advance(10.0)
        with pytest.raises(SteppingError, match="past"):
            simulator.submit(Job("j", "u", n_gpus=1, duration_h=1.0, submit_time_h=2.0))

    def test_after_finalize(self, world):
        simulator = _build_simulator(world, "backfill")
        simulator.begin()
        simulator.finalize()
        with pytest.raises(SteppingError, match="after finalize"):
            simulator.advance(5.0)
        with pytest.raises(SteppingError, match="after finalize"):
            simulator.submit(Job("j", "u", n_gpus=1, duration_h=1.0, submit_time_h=0.0))

    def test_stepping_error_is_simulation_error(self):
        # Existing callers catching SimulationError keep working.
        assert issubclass(SteppingError, SimulationError)


class TestSessionThreadSafety:
    """Concurrent substrate access builds each world exactly once (satellite c)."""

    def test_concurrent_scenario_builds_once(self):
        session = ExperimentSession("supercloud-small")
        barrier = threading.Barrier(8)
        results = []

        def hit():
            barrier.wait()
            results.append(session.scenario())

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert session.scenario_builds == 1
        assert all(scenario is results[0] for scenario in results)

    def test_concurrent_job_traces_build_once(self):
        session = ExperimentSession("supercloud-small")
        barrier = threading.Barrier(6)
        results = []

        def hit():
            barrier.wait()
            results.append(session.job_trace(n_jobs=40, horizon_h=24.0))

        threads = [threading.Thread(target=hit) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(trace is results[0] for trace in results)


class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        payload = {
            "format": CHECKPOINT_FORMAT_VERSION,
            "meta": {"session_id": "a"},
            "journal": [],
            "advanced_to_h": 0.0,
        }
        path = store.save("a", payload)
        assert store.load(path) == payload

    def test_pruning_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for index in range(5):
            store.save("a", {"format": CHECKPOINT_FORMAT_VERSION, "index": index})
        remaining = store.checkpoints("a")
        assert len(remaining) == 2
        assert store.load(remaining[-1])["index"] == 4

    def test_unserializable_payload_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="JSON"):
            store.save("a", {"format": CHECKPOINT_FORMAT_VERSION, "bad": float("nan")})
        assert store.checkpoints("a") == []

    def test_session_ids_and_isolation(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("a", {"format": CHECKPOINT_FORMAT_VERSION})
        store.save("b", {"format": CHECKPOINT_FORMAT_VERSION})
        assert store.session_ids() == ["a", "b"]
        assert len(store.checkpoints("a")) == 1

    def test_wrong_format_version_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save("a", {"format": 999})
        with pytest.raises(CheckpointError, match="format"):
            store.load(path)
