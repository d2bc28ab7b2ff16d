"""Simulator checkpoint/restore, corrupt checkpoints, stepping-API misuse, and session thread safety.

The headline property: restoring a mid-run snapshot onto a freshly built
simulator and advancing to the horizon yields job records **bit-identical**
to the uninterrupted run — across plain policies, stateful composed
pipelines (the adaptive power-cap observer) and fleet member scenarios, and
surviving a JSON round trip of the snapshot dict.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import threading
from pathlib import Path

import pytest

from repro.cluster.cooling import CoolingModel
from repro.cluster.observers import SimulatorObserver
from repro.cluster.resources import Cluster
from repro.cluster.simulator import ClusterSimulator, SimulationConfig, SNAPSHOT_VERSION
from repro.config import FacilityConfig
from repro.core.levers import make_scheduler
from repro.errors import CheckpointError, SimulationError, SteppingError
from repro.experiments import ExperimentSession
from repro.fleet import get_fleet
from repro.scheduler.job import STATIC_FIELDS, Job, JobState
from repro.serve.checkpoint import CHECKPOINT_FORMAT_VERSION, CheckpointStore
from repro.serve.session import SessionManager

HORIZON_H = 7 * 24.0


def _fingerprint(result) -> str:
    """sha256 over the full job-record table (the bit-identity witness)."""
    records = tuple(
        (
            r.job_id,
            r.start_time_h,
            r.finish_time_h,
            r.energy_j,
            r.power_cap_w,
            r.completed,
        )
        for r in result.job_records
    )
    return hashlib.sha256(repr(records).encode()).hexdigest()


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


@pytest.fixture(scope="module")
def trace(world):
    return world.job_trace(n_jobs=150, horizon_h=HORIZON_H)


class TestRestoreParity:
    """restore(snapshot) + finalize == uninterrupted run, bit for bit."""

    @pytest.mark.parametrize(
        "policy",
        [
            "backfill",
            "carbon-aware",
            # A composed pipeline whose adaptive-cap stage is a *stateful*
            # observer: its controller caps and energy-accrual ledger must
            # ride along in the snapshot.
            "backfill+adaptive(budget_w=25000)",
        ],
    )
    def test_policy_parity_through_json(self, world, trace, policy):
        reference = _fingerprint(
            _build_simulator(world, policy).run([j.clone_pending() for j in trace])
        )

        interrupted = _build_simulator(world, policy)
        interrupted.begin([j.clone_pending() for j in trace])
        interrupted.advance(48.0)
        payload = json.loads(json.dumps(interrupted.snapshot()))

        resumed = _build_simulator(world, policy)
        resumed.restore(payload, [j.clone_pending() for j in trace])
        assert _fingerprint(resumed.finalize()) == reference

    @pytest.mark.parametrize(
        "policy",
        ["edf+backfill+carbon(cap=0.7)", "sjf+backfill+renewable(min_share=0.3)"],
    )
    @pytest.mark.parametrize("arrival", ["trace-order", "same-instant-ids-reversed"])
    def test_non_submit_ordering_parity_on_a_deep_queue(self, world, policy, arrival):
        """The restored queue keeps the policy's order, not the arrival order."""
        trace = world.job_trace(n_jobs=600, horizon_h=HORIZON_H)
        if arrival == "same-instant-ids-reversed":
            # Submits floored to the hour, listed so that the jobs of one
            # instant arrive in descending job id.
            floored = [
                dataclasses.replace(job, submit_time_h=float(math.floor(job.submit_time_h)))
                for job in sorted(trace, key=lambda job: job.job_id, reverse=True)
            ]
            trace = sorted(floored, key=lambda job: job.submit_time_h)
        reference = _fingerprint(
            _build_simulator(world, policy).run([j.clone_pending() for j in trace])
        )

        interrupted = _build_simulator(world, policy)
        interrupted.begin([j.clone_pending() for j in trace])
        interrupted.advance(96.0)
        assert interrupted.n_pending >= 15
        payload = json.loads(json.dumps(interrupted.snapshot()))

        resumed = _build_simulator(world, policy)
        resumed.restore(payload, [j.clone_pending() for j in trace])
        assert _fingerprint(resumed.finalize()) == reference

    def test_fleet_member_parity(self):
        """A fleet member spec (relocated scenario) restores bit-identically too."""
        member = get_fleet("duo-climate-small").members[1]  # the desert twin
        world = ExperimentSession(member)
        trace = world.job_trace(n_jobs=100, horizon_h=HORIZON_H)
        reference = _fingerprint(
            _build_simulator(world, "backfill").run([j.clone_pending() for j in trace])
        )
        interrupted = _build_simulator(world, "backfill")
        interrupted.begin([j.clone_pending() for j in trace])
        interrupted.advance(24.0)
        snapshot = interrupted.snapshot()
        resumed = _build_simulator(world, "backfill")
        resumed.restore(snapshot, [j.clone_pending() for j in trace])
        assert _fingerprint(resumed.finalize()) == reference

    def test_restore_then_submit_continues(self, world, trace):
        """A restored run accepts further mid-run submissions."""
        interrupted = _build_simulator(world, "backfill")
        interrupted.begin([j.clone_pending() for j in trace])
        interrupted.advance(24.0)
        snapshot = interrupted.snapshot()
        resumed = _build_simulator(world, "backfill")
        resumed.restore(snapshot, [j.clone_pending() for j in trace])
        resumed.submit(Job("late", "u", n_gpus=1, duration_h=2.0, submit_time_h=30.0))
        result = resumed.finalize()
        late = next(r for r in result.job_records if r.job_id == "late")
        assert late.completed

    def test_snapshot_is_a_pure_read(self, world, trace):
        """Taking a snapshot does not move the run it captures."""
        simulator = _build_simulator(world, "backfill")
        simulator.begin([j.clone_pending() for j in trace])
        simulator.advance(48.0)
        first = simulator.snapshot()
        assert simulator.snapshot() == first
        pending = {event[2] for event in first["events"]}
        simulator.submit(Job("late", "u", n_gpus=1, duration_h=2.0, submit_time_h=50.0))
        pushed = {event[2] for event in simulator.snapshot()["events"]}
        assert pushed - pending == {first["next_sequence"]}

    def test_tick_series_preserved(self, world, trace):
        """The restored run's power series covers the whole horizon seamlessly."""
        uninterrupted = _build_simulator(world, "backfill")
        reference = uninterrupted.run([j.clone_pending() for j in trace])
        interrupted = _build_simulator(world, "backfill")
        interrupted.begin([j.clone_pending() for j in trace])
        interrupted.advance(60.0)
        resumed = _build_simulator(world, "backfill")
        resumed.restore(interrupted.snapshot(), [j.clone_pending() for j in trace])
        result = resumed.finalize()
        assert result.it_power_w.tolist() == reference.it_power_w.tolist()
        assert result.facility_energy_kwh == reference.facility_energy_kwh

    @pytest.mark.parametrize("policy", ["backfill", "backfill+adaptive(budget_w=6000)"])
    def test_submitted_jobs_restore_bit_identically(self, world, trace, policy):
        """A submitted job finished before the snapshot hour, another runs across it."""

        def run(snapshot_h=None):
            simulator = _build_simulator(world, policy)
            simulator.begin([j.clone_pending() for j in trace])
            done = Job("sub-done", "u", n_gpus=1, duration_h=2.0, submit_time_h=30.0,
                       tags={"kind": "inference"})
            running = Job("sub-running", "u", n_gpus=2, duration_h=20.0, submit_time_h=40.0,
                          utilization=0.6, deadline_h=120.0, power_cap_fraction=0.8)
            simulator.submit(done)
            simulator.submit(running)
            if snapshot_h is not None:
                simulator.advance(snapshot_h)
                assert done.state is JobState.COMPLETED
                assert running.state is JobState.RUNNING
                payload = json.loads(json.dumps(simulator.snapshot()))
                simulator = _build_simulator(world, policy)
                simulator.restore(payload, [j.clone_pending() for j in trace])
            return simulator.finalize()

        reference = run()
        resumed = run(snapshot_h=48.0)
        assert resumed.job_records == reference.job_records
        assert resumed.it_power_w.tolist() == reference.it_power_w.tolist()
        assert resumed.facility_power_w.tolist() == reference.facility_power_w.tolist()


class TestSnapshotValidation:
    def test_version_mismatch_rejected(self, world, trace):
        simulator = _build_simulator(world, "backfill")
        simulator.begin([j.clone_pending() for j in trace])
        payload = simulator.snapshot()
        payload["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(CheckpointError, match="version"):
            _build_simulator(world, "backfill").restore(
                payload, [j.clone_pending() for j in trace]
            )

    def test_scheduler_mismatch_rejected(self, world, trace):
        simulator = _build_simulator(world, "backfill")
        simulator.begin([j.clone_pending() for j in trace])
        snapshot = simulator.snapshot()
        other = _build_simulator(world, "fifo")
        with pytest.raises(CheckpointError, match="scheduler"):
            other.restore(snapshot, [j.clone_pending() for j in trace])

    def test_config_mismatch_rejected(self, world, trace):
        simulator = _build_simulator(world, "backfill")
        simulator.begin([j.clone_pending() for j in trace])
        snapshot = simulator.snapshot()
        spec = world.spec
        scenario = world.scenario()
        other = ClusterSimulator(
            Cluster(spec.facility, gpu_model=spec.workload.gpu_model),
            make_scheduler("backfill"),
            SimulationConfig(horizon_h=HORIZON_H, tick_h=0.5),
            weather_hourly_c=scenario.weather_hourly_c,
            cooling=CoolingModel(),
            grid=scenario.grid,
        )
        with pytest.raises(CheckpointError, match="tick_h"):
            other.restore(snapshot, [j.clone_pending() for j in trace])

    def test_restore_onto_begun_simulator_rejected(self, world, trace):
        simulator = _build_simulator(world, "backfill")
        simulator.begin([j.clone_pending() for j in trace])
        snapshot = simulator.snapshot()
        begun = _build_simulator(world, "backfill")
        begun.begin()
        with pytest.raises(SteppingError, match="already began"):
            begun.restore(snapshot, [j.clone_pending() for j in trace])

    def test_snapshot_requires_running_run(self, world):
        simulator = _build_simulator(world, "backfill")
        with pytest.raises(SteppingError, match="before begin"):
            simulator.snapshot()
        simulator.begin()
        simulator.finalize()
        with pytest.raises(SteppingError, match="after finalize"):
            simulator.snapshot()

    def test_stateless_observer_rejects_foreign_state(self):
        observer = SimulatorObserver()
        assert observer.snapshot_state() is None
        observer.restore_state(None)  # the no-op round trip
        with pytest.raises(CheckpointError):
            observer.restore_state({"unexpected": 1})


class TestCheckpointShape:
    """A checkpoint carries what restore cannot rebuild, and refuses a foreign trace."""

    @pytest.fixture()
    def mid_run(self, world, trace):
        """A run 48 h in, and its trace jobs followed by the one submitted job."""
        jobs = [j.clone_pending() for j in trace]
        late = Job("late", "u", n_gpus=1, duration_h=2.0, submit_time_h=30.0)
        simulator = _build_simulator(world, "backfill")
        simulator.begin(jobs)
        simulator.submit(late)
        simulator.advance(48.0)
        return simulator, [*jobs, late]

    def test_trace_is_referenced_not_copied(self, mid_run, trace):
        simulator, jobs = mid_run
        state = json.loads(json.dumps(simulator.snapshot()))
        late = jobs[-1]
        assert state["jobs"] == [{name: getattr(late, name) for name in STATIC_FIELDS}]
        assert state["trace_jobs"] == len(trace)
        started = [i for i, job in enumerate(jobs) if job.state is not JobState.PENDING]
        assert 0 < len(started) < len(trace)
        assert started[-1] == len(trace)  # the submitted job's row follows the trace's
        assert state["started"] == [
            [
                i,
                jobs[i].state.value,
                jobs[i].start_time_h,
                jobs[i].finish_time_h,
                jobs[i].assigned_power_cap_w,
                jobs[i].actual_duration_h,
                jobs[i].energy_j,
            ]
            for i in started
        ]

    def test_envelope_carries_tick_counts_not_rows(self, tmp_path):
        manager = SessionManager()
        session = manager.create_session(
            {"session_id": "a", "scenario": "supercloud-small", "preload_jobs": 100}
        )
        session.advance_to(12.0)
        store = CheckpointStore(tmp_path)
        payload = store.load(session.checkpoint(store))
        rows = session.ticks_since(0)
        assert len(payload["ticks"]) == len(rows) == 12
        assert payload["ticks"] == [
            [row["n_pending"], row["n_running"], row["it_power_w"]] for row in rows
        ]

    @pytest.mark.parametrize("foreign", ["other-seed", "one-short"])
    def test_foreign_trace_is_refused_and_leaves_the_simulator_unbegun(
        self, world, trace, mid_run, foreign
    ):
        simulator, _ = mid_run
        snapshot = simulator.snapshot()
        if foreign == "other-seed":
            other = ExperimentSession("supercloud-small", seed=world.spec.seed + 1)
            jobs = other.job_trace(n_jobs=len(trace), horizon_h=HORIZON_H)
            assert len(jobs) == len(trace)
        else:
            jobs = trace[:-1]
        resumed = _build_simulator(world, "backfill")
        with pytest.raises(CheckpointError, match="trace mismatch"):
            resumed.restore(snapshot, [j.clone_pending() for j in jobs])
        with pytest.raises(SteppingError, match="before begin"):
            resumed.advance(49.0)
        # Nothing was adopted: the right trace still restores onto it.
        resumed.restore(snapshot, [j.clone_pending() for j in trace])
        resumed.advance(49.0)

    def test_version_1_payloads_are_refused(self, tmp_path, world, trace, mid_run):
        simulator, _ = mid_run
        payload = simulator.snapshot()
        payload["version"] = 1
        with pytest.raises(CheckpointError, match="version 1 is not supported"):
            _build_simulator(world, "backfill").restore(
                payload, [j.clone_pending() for j in trace]
            )
        store = CheckpointStore(tmp_path)
        path = store.save("a", {"format": 1, "meta": {}, "snapshot": payload, "ticks": []})
        with pytest.raises(CheckpointError, match="format version 1"):
            store.load(path)
        assert SessionManager().restore_all(store) == []


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

    def test_session_survives_pickling(self):
        import pickle

        session = ExperimentSession("supercloud-small")
        session.scenario()
        clone = pickle.loads(pickle.dumps(session))
        assert clone.spec == session.spec
        # The recreated lock still guards the caches.
        assert clone.scenario() is not None


class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        payload = {
            "format": CHECKPOINT_FORMAT_VERSION,
            "meta": {"session_id": "a"},
            "snapshot": {},
            "ticks": [],
        }
        path = store.save("a", payload)
        assert store.load(path) == payload
        assert store.latest("a") == payload

    def test_pruning_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for index in range(5):
            store.save("a", {"format": CHECKPOINT_FORMAT_VERSION, "index": index})
        remaining = store.checkpoints("a")
        assert len(remaining) == 2
        assert store.latest("a")["index"] == 4

    def test_corrupt_latest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("a", {"format": CHECKPOINT_FORMAT_VERSION, "index": 0})
        newest = store.save("a", {"format": CHECKPOINT_FORMAT_VERSION, "index": 1})
        newest.write_text("{truncated")  # a crash mid-write
        assert store.latest("a")["index"] == 0

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
        assert store.latest("a") is None


def _drop(*path):
    """Mutation deleting the field at ``path`` of a checkpoint payload."""

    def mutate(payload):
        *parents, key = path
        for parent in parents:
            payload = payload[parent]
        del payload[key]

    return mutate


def _cluster_state(payload):
    return payload["snapshot"]["cluster"]


def _far_location(payload):
    _cluster_state(payload)["allocations"][0]["locations"][0] = [1000000, 0]


def _unknown_event_type(payload):
    payload["snapshot"]["events"][0][1] = 99


def _shared_location(payload):
    first, second = _cluster_state(payload)["allocations"][:2]
    second["locations"][0] = first["locations"][0]


def _version_2_snapshot(payload):
    payload["snapshot"]["version"] = 2


def _format_2_envelope(payload):
    payload["format"] = 2


class TestCorruptCheckpoints:
    """A structurally bad checkpoint is skipped, never a crash at daemon start."""

    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory):
        manager = SessionManager()
        session = manager.create_session(
            {"session_id": "a", "scenario": "supercloud-small", "preload_jobs": 200}
        )
        session.advance_to(48.0)
        store = CheckpointStore(tmp_path_factory.mktemp("ckpt"))
        session.checkpoint(store)
        payload = store.latest("a")
        assert len(_cluster_state(payload)["allocations"]) >= 2
        assert payload["snapshot"]["events"]
        return payload

    def _restore_all(self, tmp_path, payload):
        (tmp_path / "a.00000000.json").write_text(json.dumps(payload))
        return SessionManager().restore_all(CheckpointStore(tmp_path))

    def test_intact_checkpoint_restores(self, tmp_path, payload):
        assert self._restore_all(tmp_path, payload) == ["a"]

    @pytest.mark.parametrize(
        "mutate",
        [
            _drop("snapshot"),
            _drop("meta", "policy"),
            _far_location,
            _unknown_event_type,
            _shared_location,
            _version_2_snapshot,
            _format_2_envelope,
        ],
        ids=[
            "no-snapshot",
            "no-policy",
            "far-location",
            "event-type-99",
            "shared-location",
            "snapshot-version-2",
            "format-2",
        ],
    )
    def test_bad_checkpoint_is_skipped(self, tmp_path, payload, mutate):
        bad = json.loads(json.dumps(payload))
        mutate(bad)
        assert self._restore_all(tmp_path, bad) == []

    def test_unrestorable_newest_falls_back_to_an_older_checkpoint(self, tmp_path):
        session = SessionManager().create_session(
            {"session_id": "a", "scenario": "supercloud-small", "preload_jobs": 100}
        )
        store = CheckpointStore(tmp_path)
        session.advance_to(24.0)
        session.checkpoint(store)
        session.advance_to(48.0)
        newest = Path(session.checkpoint(store))
        assert store.checkpoints("a")[-1] == newest
        # Valid JSON in the current format, but its job table cannot be read.
        broken = json.loads(newest.read_text())
        broken["snapshot"]["jobs"] = [{"job_id": "broken"}]
        newest.write_text(json.dumps(broken))
        manager = SessionManager()
        assert manager.restore_all(store) == ["a"]
        assert manager.get("a").advanced_to_h == 24.0


class TestClusterRestoreValidation:
    """``Cluster.restore_state`` rejects impossible state and leaves the pool as it was."""

    @pytest.fixture()
    def state(self):
        cluster = Cluster(FacilityConfig(n_nodes=4, gpus_per_node=2))
        cluster.allocate("a", 3, utilization=0.5)
        cluster.allocate("b", 2, utilization=0.9, power_limit_w=200.0)
        cluster.drain_nodes(1)
        return json.loads(json.dumps(cluster.snapshot_state()))

    @pytest.mark.parametrize(
        "locations",
        [[[1000000, 0]], [[0, 2]], [[-1, 0]], [[0, 0]], [[3, 0]], []],
        ids=["far-node", "far-index", "negative", "held-twice", "drained-node", "empty"],
    )
    def test_bad_locations_rejected(self, state, locations):
        assert state["drained"] == [3]
        state["allocations"][1]["locations"] = locations
        cluster = Cluster(FacilityConfig(n_nodes=4, gpus_per_node=2))
        cluster.allocate("c", 1)
        before = cluster.snapshot_state()
        with pytest.raises(CheckpointError):
            cluster.restore_state(state)
        assert cluster.snapshot_state() == before

    def test_record_power_is_recomputed_on_restore(self, state):
        assert all("per_gpu_power_w" not in entry for entry in state["allocations"])
        cluster = Cluster(FacilityConfig(n_nodes=4, gpus_per_node=2))
        cluster.allocate("a", 3, utilization=0.5)
        cluster.allocate("b", 2, utilization=0.9)
        cluster.set_power_limit("b", 200.0)
        cluster.drain_nodes(1)
        restored = Cluster(FacilityConfig(n_nodes=4, gpus_per_node=2))
        restored.restore_state(state)
        assert restored.allocations == cluster.allocations
        assert restored.it_power_w() == cluster.it_power_w()

    def test_missing_field_and_repeated_job_rejected(self, state):
        cluster = Cluster(FacilityConfig(n_nodes=4, gpus_per_node=2))
        with pytest.raises(CheckpointError):
            cluster.restore_state({**state, "busy_power_w": None})
        with pytest.raises(CheckpointError):
            cluster.restore_state({key: value for key, value in state.items() if key != "drained"})
        state["allocations"][1]["job_id"] = "a"
        with pytest.raises(CheckpointError):
            cluster.restore_state(state)
