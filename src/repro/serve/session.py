"""Live simulation sessions and the daemon's session manager.

A :class:`ServeSession` is one warm world: a mid-run
:class:`~repro.cluster.simulator.ClusterSimulator`, the telemetry rows it
has streamed and the journal of client jobs it was fed, guarded by a
per-session lock so HTTP handler threads can submit jobs, advance time,
stream ticks and checkpoint concurrently without corrupting the event loop.

The :class:`SessionManager` builds every session's substrates through one
(thread-safe) :class:`~repro.experiments.ExperimentSession`, which caches
them per scenario spec: two sessions over the same spec share one weather /
trace / grid build.  It also answers fleet-style *what-if* routing queries —
"which of these live sessions should take this job?" — by viewing each
session's simulator as a :class:`~repro.fleet.routing.SiteSnapshot` and
running any router spec over them.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
import uuid
from typing import Any, Optional, Sequence

from ..cluster.observers import SimulatorObserver
from ..cluster.simulator import ClusterSimulator, SimulationConfig
from ..core.levers import build_simulator
from ..errors import CheckpointError, ServeError, checkpoint_fields
from ..experiments.session import ExperimentSession
from ..experiments.spec import SCENARIO_OVERRIDES, ScenarioSpec, get_scenario, get_site
from ..fleet.routing import SiteSnapshot, make_router
from ..obs.metrics import MetricsRegistry
from ..scheduler.job import STATIC_FIELDS, Job
from .checkpoint import CHECKPOINT_FORMAT_VERSION, SESSION_ID, CheckpointStore

__all__ = [
    "UnknownSessionError",
    "TelemetryObserver",
    "ServeSession",
    "SessionManager",
]

_REQUIRED_JOB_FIELDS = ("job_id", "user_id", "n_gpus", "duration_h", "submit_time_h")

#: A client job's numeric fields and their types.
_JOB_NUMBER_FIELDS = {
    "n_gpus": int,
    "duration_h": float,
    "submit_time_h": float,
    "utilization": float,
    "priority": int,
    "deadline_h": float,
    "max_defer_h": float,
    "power_cap_fraction": float,
}

#: The numeric job fields for which null is a value (no deadline, no cap).
_NULLABLE_JOB_FIELDS = ("deadline_h", "power_cap_fraction")

#: A client job's other fields and the type each must have.
_JOB_TYPED_FIELDS = {
    "job_id": str,
    "user_id": str,
    "deferrable": bool,
    "queue_name": str,
    "tags": dict,
}


class UnknownSessionError(ServeError):
    """Raised when a request addresses a session id the daemon does not hold."""


def number_field(body: dict[str, Any], field: str, kind: type, default: Any = None) -> Any:
    """``body[field]`` as ``kind`` (``int`` or ``float``); ``default`` when absent or null.

    A value that is not a JSON number (a string, a boolean, a list...), a
    non-finite float, or a non-integral number for an ``int`` field raises
    :class:`~repro.errors.ServeError` naming the field, which the daemon
    answers with a 400.
    """
    raw = body.get(field)
    if raw is None:
        return default
    try:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise TypeError
        value = kind(raw)
        if kind is float and not math.isfinite(value):
            raise ValueError
        if kind is int and isinstance(raw, float) and value != raw:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        expected = "an integer" if kind is int else "a finite number"
        raise ServeError(f"field {field!r} must be {expected}, got {raw!r}") from None
    return value


def resolve_spec(scenario: str, overrides: dict[str, Any]) -> ScenarioSpec:
    """A registered scenario name plus simple overrides -> a concrete spec.

    Only the scalar overrides a checkpoint can faithfully replay are
    accepted: :data:`~repro.experiments.spec.SCENARIO_OVERRIDES`, the same
    surface the CLI's ``--grid`` scenario keys expose.
    """
    spec = get_scenario(scenario)
    unknown = set(overrides) - set(SCENARIO_OVERRIDES)
    if unknown:
        raise ServeError(
            f"unsupported scenario overrides {sorted(unknown)}; "
            f"supported: {', '.join(SCENARIO_OVERRIDES)}"
        )
    changes: dict[str, Any] = {}
    for name, kind in SCENARIO_OVERRIDES.items():
        if overrides.get(name) is not None:
            changes[name] = (
                get_site(overrides[name]) if name == "site" else number_field(overrides, name, kind)
            )
    return spec.replace(**changes) if changes else spec


class TelemetryObserver(SimulatorObserver):
    """Feeds every recording tick into the owning session's stream buffer.

    Stateless by design: the rows live on the session, and a restore
    regenerates them by replaying the session's inputs through this observer.
    """

    def __init__(self, session: "ServeSession") -> None:
        self._session = session

    def on_tick(self, simulator: ClusterSimulator, now_h: float, it_power_w: float) -> None:
        self._session._record_tick(simulator, now_h, it_power_w)


class ServeSession:
    """One live, lockable simulation session held by the daemon.

    Build through :meth:`create` (fresh) or :meth:`from_checkpoint`
    (restored, which replays a checkpoint's journal on a :meth:`create`-d
    session).  The simulator is built from the scenario's cached
    substrates, so restarts share builds with surviving sessions.
    """

    def __init__(
        self,
        *,
        session_id: str,
        scenario_name: str,
        overrides: dict[str, Any],
        policy: str,
        config: SimulationConfig,
        power_cap_fraction: Optional[float],
        preload_jobs: int,
        world: ExperimentSession,
    ) -> None:
        self.session_id = session_id
        self.scenario_name = scenario_name
        self.overrides = dict(overrides)
        self.spec = resolve_spec(scenario_name, self.overrides)
        #: Digest of the scenario spec (the substrate-sharing key).
        self.spec_hash = hashlib.sha256(repr(self.spec).encode()).hexdigest()[:16]
        self.policy = policy
        self.power_cap_fraction = power_cap_fraction
        self.preload_jobs = int(preload_jobs)
        self.created_at = time.time()
        # Uptime math uses the monotonic clock: wall-clock (time.time) can
        # jump under NTP adjustment, which would skew or negate uptimes.
        self.created_monotonic = time.monotonic()
        self.request_count = 0
        self.result = None  # SimulationResult after finalize()
        self.result_summary: Optional[dict[str, Any]] = None
        self._ticks: list[dict[str, Any]] = []
        #: ``[advanced_to_h, static fields]`` of every client job the
        #: simulator accepted, in submission order: the checkpoint's journal.
        self._journal: list[list] = []
        self.lock = threading.RLock()
        #: Signals new telemetry rows / finalization to streaming readers.
        self.ticks_available = threading.Condition(self.lock)
        self.last_checkpoint_h: Optional[float] = None
        self.checkpoint_count = 0
        self.simulator = build_simulator(
            self.spec,
            world.scenario(self.spec),
            policy,
            config,
            power_cap_fraction=power_cap_fraction,
            observers=[TelemetryObserver(self)],
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        *,
        session_id: str,
        scenario_name: str,
        overrides: dict[str, Any],
        policy: str,
        horizon_h: float,
        tick_h: float,
        facility_power_budget_w: Optional[float],
        power_cap_fraction: Optional[float],
        preload_jobs: int,
        world: ExperimentSession,
    ) -> "ServeSession":
        """Build a fresh session, ``begin()`` its run, optionally preload a trace."""
        session = cls(
            session_id=session_id,
            scenario_name=scenario_name,
            overrides=overrides,
            policy=policy,
            config=SimulationConfig(
                horizon_h=float(horizon_h),
                tick_h=float(tick_h),
                facility_power_budget_w=facility_power_budget_w,
            ),
            power_cap_fraction=power_cap_fraction,
            preload_jobs=preload_jobs,
            world=world,
        )
        session.simulator.begin(session._preload_trace(world))
        return session

    @classmethod
    def from_checkpoint(cls, payload: dict, world: ExperimentSession) -> "ServeSession":
        """Rebuild a session by replaying a checkpoint's input journal.

        The session is built again with :meth:`create` from the checkpoint's
        meta.  Each journal entry is replayed in order: advance to the cursor
        the job was submitted at, then submit it.  Last, the session advances
        to ``advanced_to_h``.  Replay writes no checkpoints, and the
        telemetry observer regenerates every row as it goes.  Advancing to
        each entry's own cursor keeps replay exact even when a job was
        submitted at the instant of the last processed event, which a live
        session then drains twice.

        The replayed simulator's :meth:`~repro.cluster.simulator.
        ClusterSimulator.snapshot` must equal the checkpoint's ``cursor``.
        Raises :class:`~repro.errors.CheckpointError` when it does not, when
        the payload is missing a field, or when it holds a value this build
        cannot replay.
        """
        with checkpoint_fields("checkpoint"):
            meta = payload["meta"]
            session = cls.create(
                session_id=meta["session_id"],
                scenario_name=meta["scenario"],
                overrides=meta["overrides"],
                policy=meta["policy"],
                horizon_h=meta["horizon_h"],
                tick_h=meta["tick_h"],
                facility_power_budget_w=meta["facility_power_budget_w"],
                power_cap_fraction=meta["power_cap_fraction"],
                preload_jobs=meta["preload_jobs"],
                world=world,
            )
            for cursor_h, job in payload["journal"]:
                session.advance_to(cursor_h)
                session.submit_jobs([job])
            session.advance_to(payload["advanced_to_h"])
            replayed = session.simulator.snapshot()
            if replayed != payload["cursor"]:
                raise CheckpointError(
                    f"replay of session {session.session_id!r} diverged: the checkpoint "
                    f"was written at {payload['cursor']!r}, the replay reached {replayed!r}"
                )
            session.checkpoint_count = int(meta["checkpoint_count"])
            session.last_checkpoint_h = session.advanced_to_h
        return session

    def _preload_trace(self, world: ExperimentSession) -> list[Job]:
        """Fresh PENDING copies of the session's preload trace (empty without one)."""
        if not self.preload_jobs:
            return []
        trace = world.job_trace(
            n_jobs=self.preload_jobs,
            horizon_h=self.simulator.config.horizon_h,
            spec=self.spec,
        )
        return [job.clone_pending() for job in trace]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def finalized(self) -> bool:
        """Whether the session's run has been finalized."""
        return self.result_summary is not None

    @property
    def uptime_s(self) -> float:
        """Seconds since this session object was created (monotonic clock).

        Restored sessions count from the restore, not the original creation —
        the monotonic clock does not survive a process restart.
        """
        return time.monotonic() - self.created_monotonic

    def count_request(self) -> None:
        """Tally one API request addressed to this session."""
        with self.lock:
            self.request_count += 1

    def status(self) -> dict[str, Any]:
        """The session's live state as one JSON-able dict."""
        with self.lock:
            simulator = self.simulator
            return {
                "session_id": self.session_id,
                "scenario": self.scenario_name,
                "overrides": dict(self.overrides),
                "spec_hash": self.spec_hash,
                "policy": self.policy,
                "horizon_h": self.simulator.config.horizon_h,
                "tick_h": self.simulator.config.tick_h,
                "now_h": self.advanced_to_h,
                "n_pending": simulator.n_pending,
                "n_running": simulator.n_running,
                "it_power_w": simulator.current_it_power_w,
                "ticks_recorded": len(self._ticks),
                "finalized": self.finalized,
                "checkpoints": self.checkpoint_count,
                "last_checkpoint_h": self.last_checkpoint_h,
                "uptime_s": self.uptime_s,
                "requests": self.request_count,
            }

    @property
    def advanced_to_h(self) -> float:
        """The time bound the session has advanced to (its public cursor)."""
        return self.simulator._advanced_to

    # ------------------------------------------------------------------
    # Request handlers (each takes the session lock)
    # ------------------------------------------------------------------
    def submit_jobs(self, jobs: Sequence[dict[str, Any]]) -> int:
        """Validate and feed client-supplied job dicts into the running simulation."""
        built = [self._build_job(data) for data in jobs]
        with self.lock:
            if self.finalized:
                raise ServeError(f"session {self.session_id!r} is finalized")
            for job in built:
                self.simulator.submit(job)
                self._journal.append(
                    [self.advanced_to_h, {name: getattr(job, name) for name in STATIC_FIELDS}]
                )
        return len(built)

    @staticmethod
    def _build_job(data: dict[str, Any]) -> Job:
        if not isinstance(data, dict):
            raise ServeError(f"each job must be a JSON object, got {type(data).__name__}")
        missing = [name for name in _REQUIRED_JOB_FIELDS if name not in data]
        if missing:
            raise ServeError(f"job is missing required fields {missing}")
        # A client sets a job's static fields; its runtime state is the simulator's.
        unknown = set(data) - set(STATIC_FIELDS)
        if unknown:
            raise ServeError(
                f"unknown job fields {sorted(unknown)}; accepted: {list(STATIC_FIELDS)}"
            )
        fields = {name: data[name] for name in STATIC_FIELDS if name in data}
        # Checked here, not in Job.__post_init__, which every trace clone runs.
        for name, kind in _JOB_NUMBER_FIELDS.items():
            if name in fields:
                fields[name] = number_field(fields, name, kind)
                if fields[name] is None and name not in _NULLABLE_JOB_FIELDS:
                    raise ServeError(f"field {name!r} must be a number, got None")
        for name, kind in _JOB_TYPED_FIELDS.items():
            if name in fields and not isinstance(fields[name], kind):
                raise ServeError(
                    f"field {name!r} must be of type {kind.__name__}, got {fields[name]!r}"
                )
        return Job(**fields)

    def advance_to(
        self,
        until_h: float,
        *,
        deadline_s: Optional[float] = None,
        checkpoint_every_h: Optional[float] = None,
        store: Optional[CheckpointStore] = None,
    ) -> dict[str, Any]:
        """Advance the simulation to ``until_h``, bounded by a wall-clock deadline.

        The loop advances in tick-sized chunks so a long request can stop at
        a consistent hour boundary when ``deadline_s`` expires (the response
        carries ``timed_out`` and how far it got — the client simply asks
        again), and so periodic checkpoints land every ``checkpoint_every_h``
        simulated hours while a month-long advance is in flight.
        """
        deadline = None if deadline_s is None else time.monotonic() + float(deadline_s)
        timed_out = False
        with self.lock:
            if self.finalized:
                raise ServeError(f"session {self.session_id!r} is finalized")
            target = min(float(until_h), self.simulator.config.horizon_h)
            step = max(self.simulator.config.tick_h, 1e-6)
            reached = self.advanced_to_h
            while reached < target - 1e-12:
                reached = min(reached + step, target)
                self.simulator.advance(reached)
                if (
                    store is not None
                    and checkpoint_every_h
                    and reached - (self.last_checkpoint_h or 0.0) >= checkpoint_every_h
                ):
                    self.checkpoint(store)
                if deadline is not None and time.monotonic() > deadline and reached < target:
                    timed_out = True
                    break
            self.ticks_available.notify_all()
        status = self.status()
        status["timed_out"] = timed_out
        return status

    def finalize(self) -> dict[str, Any]:
        """Finalize the run; the summary is kept for repeat reads."""
        with self.lock:
            if self.result_summary is None:
                self.result = self.simulator.finalize()
                self.result_summary = self.result.summary()
                self.ticks_available.notify_all()
            return dict(self.result_summary)

    # ------------------------------------------------------------------
    # Telemetry stream
    # ------------------------------------------------------------------
    def _record_tick(self, simulator: ClusterSimulator, now_h: float, it_power_w: float) -> None:
        """Observer callback: append one stream row (under the session lock)."""
        self._ticks.append(
            self._tick_row(
                len(self._ticks), now_h, it_power_w, simulator.n_pending, simulator.n_running
            )
        )
        self.ticks_available.notify_all()

    def _tick_row(
        self, tick: int, now_h: float, it_power_w: float, n_pending: int, n_running: int
    ) -> dict[str, Any]:
        """One stream row: the sampled counts and power plus the hour's grid context."""
        context = self.simulator.scheduling_context(now_h)
        pue = context.current_pue
        return {
            "tick": tick,
            "session_id": self.session_id,
            "now_h": now_h,
            "it_power_w": it_power_w,
            "pue": pue,
            "facility_power_w": it_power_w * pue,
            "carbon_intensity_g_per_kwh": context.carbon_intensity_g_per_kwh,
            "price_per_mwh": context.price_per_mwh,
            "renewable_share": context.renewable_share,
            "n_pending": n_pending,
            "n_running": n_running,
        }

    def ticks_since(self, cursor: int) -> list[dict[str, Any]]:
        """Stream rows from ``cursor`` on (a copy, safe to write outside the lock)."""
        with self.lock:
            return list(self._ticks[cursor:])

    def wait_for_ticks(self, cursor: int, timeout_s: float) -> bool:
        """Block until rows beyond ``cursor`` exist, the run finalizes, or timeout.

        Returns whether new rows are available.
        """
        deadline = time.monotonic() + timeout_s
        with self.lock:
            while len(self._ticks) <= cursor and not self.finalized:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self.ticks_available.wait(remaining)
            return len(self._ticks) > cursor

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, store: CheckpointStore) -> str:
        """Write this session's inputs to the store; returns the file path."""
        with self.lock:
            if self.finalized:
                raise ServeError(
                    f"session {self.session_id!r} is finalized; nothing left to checkpoint"
                )
            config = self.simulator.config
            self.checkpoint_count += 1
            payload = {
                "format": CHECKPOINT_FORMAT_VERSION,
                "meta": {
                    "session_id": self.session_id,
                    "scenario": self.scenario_name,
                    "overrides": dict(self.overrides),
                    "policy": self.policy,
                    "horizon_h": config.horizon_h,
                    "tick_h": config.tick_h,
                    "facility_power_budget_w": config.facility_power_budget_w,
                    "power_cap_fraction": self.power_cap_fraction,
                    "preload_jobs": self.preload_jobs,
                    "checkpoint_count": self.checkpoint_count,
                },
                "journal": self._journal,
                "advanced_to_h": self.advanced_to_h,
                # What the replay must reach, as a check on it.
                "cursor": self.simulator.snapshot(),
            }
            path = store.save(self.session_id, payload)
            self.last_checkpoint_h = self.advanced_to_h
            return str(path)


class SessionManager:
    """The daemon's session table plus the one substrate cache all sessions share."""

    def __init__(self) -> None:
        self._sessions: dict[str, ServeSession] = {}
        # Keyed by spec inside: sessions over identical specs get the same
        # substrates, and its build lock serializes racing creations.
        self._world = ExperimentSession()
        self._lock = threading.RLock()

    @property
    def n_worlds(self) -> int:
        """Distinct scenario substrates built so far, shared across sessions."""
        return self._world.scenario_builds

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def create_session(self, params: dict[str, Any]) -> ServeSession:
        """Create (and register) a session from a client's request body."""
        if not isinstance(params, dict):
            raise ServeError("session creation body must be a JSON object")
        session_id = params.get("session_id") or f"s-{uuid.uuid4().hex[:12]}"
        if not isinstance(session_id, str) or not SESSION_ID.fullmatch(session_id):
            raise ServeError(
                f"session_id must be ASCII letters, digits, '-' or '_', got {session_id!r}"
            )
        scenario_name = params.get("scenario", "default")
        overrides = {
            key: params[key] for key in SCENARIO_OVERRIDES if params.get(key) is not None
        }
        session = ServeSession.create(
            session_id=session_id,
            scenario_name=scenario_name,
            overrides=overrides,
            policy=params.get("policy", "backfill"),
            horizon_h=number_field(params, "horizon_h", float, 7 * 24.0),
            tick_h=number_field(params, "tick_h", float, 1.0),
            facility_power_budget_w=number_field(params, "facility_power_budget_w", float),
            power_cap_fraction=number_field(params, "power_cap_fraction", float),
            preload_jobs=number_field(params, "preload_jobs", int, 0),
            world=self._world,
        )
        with self._lock:
            if session_id in self._sessions:
                raise ServeError(f"session {session_id!r} already exists")
            self._sessions[session_id] = session
        return session

    def restore_session(self, payload: dict) -> ServeSession:
        """Register a session rebuilt from a checkpoint payload."""
        session = ServeSession.from_checkpoint(payload, self._world)
        with self._lock:
            if session.session_id in self._sessions:
                raise ServeError(f"session {session.session_id!r} already exists")
            self._sessions[session.session_id] = session
        return session

    def restore_all(
        self, store: CheckpointStore, *, metrics: Optional[MetricsRegistry] = None
    ) -> list[str]:
        """Restore every session with a usable checkpoint; returns restored ids.

        With ``metrics``, each restored session's replay time is observed in
        the ``serve_restore_seconds`` histogram.
        """
        seconds = None
        if metrics is not None:
            seconds = metrics.histogram(
                "serve_restore_seconds",
                help="Time to restore one session by replaying its checkpoint journal",
            )
        restored = []
        for session_id in store.session_ids():
            with self._lock:
                if session_id in self._sessions:
                    continue
            # Newest first: a checkpoint that parses but does not restore
            # falls back to an older one.  Unrestorable files are left be.
            for path in reversed(store.checkpoints(session_id)):
                start = time.perf_counter()
                try:
                    self.restore_session(store.load(path))
                except CheckpointError:
                    continue
                if seconds is not None:
                    seconds.observe(time.perf_counter() - start)
                restored.append(session_id)
                break
        return restored

    def get(self, session_id: str) -> ServeSession:
        """The live session for ``session_id`` (404-mapped error when absent)."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(f"no session {session_id!r}")
        return session

    def remove(self, session_id: str) -> None:
        """Drop a session from the table (checkpoint files are left on disk)."""
        with self._lock:
            if self._sessions.pop(session_id, None) is None:
                raise UnknownSessionError(f"no session {session_id!r}")

    def sessions(self) -> list[ServeSession]:
        """The live sessions, in creation order."""
        with self._lock:
            return list(self._sessions.values())

    def checkpoint_all(self, store: CheckpointStore) -> list[str]:
        """Checkpoint every non-finalized session (the SIGTERM drain path)."""
        paths = []
        for session in self.sessions():
            if not session.finalized:
                paths.append(session.checkpoint(store))
        return paths

    # ------------------------------------------------------------------
    # What-if routing across live sessions
    # ------------------------------------------------------------------
    def route(
        self,
        job_data: dict[str, Any],
        router_spec: str,
        session_ids: Optional[Sequence[str]] = None,
    ) -> dict[str, Any]:
        """Which live session would a fleet router send this job to?

        Views each candidate session's simulator as a :class:`SiteSnapshot`
        (its live queue / occupancy / grid signals, taken under the session
        lock) and runs ``router_spec`` (any spec in the
        :mod:`repro.fleet.routing` grammar) over them.  Purely advisory:
        nothing is submitted.
        """
        job = ServeSession._build_job(job_data)
        if session_ids is None:
            candidates = [s for s in self.sessions() if not s.finalized]
        else:
            candidates = [self.get(session_id) for session_id in session_ids]
        if not candidates:
            raise ServeError("no live sessions to route across")
        snapshots = []
        for index, session in enumerate(candidates):
            with session.lock:
                snapshots.append(
                    SiteSnapshot.of(
                        session.simulator, index, session.session_id, session.advanced_to_h
                    )
                )
        router = make_router(router_spec)
        router.begin_fleet(len(snapshots))
        now_h = max(snapshot_session.advanced_to_h for snapshot_session in candidates)
        index = router.select(job, snapshots, now_h)
        if not 0 <= index < len(candidates):
            raise ServeError(
                f"router {router.name!r} returned site index {index!r} "
                f"for {len(candidates)} candidate sessions"
            )
        return {
            "session_id": candidates[index].session_id,
            "router": router.name,
            "candidates": [
                {
                    "session_id": session.session_id,
                    "queue_length": snapshot.queue_length,
                    "free_gpus": snapshot.free_gpus,
                    "carbon_intensity_g_per_kwh": snapshot.carbon_intensity_g_per_kwh,
                    "price_per_mwh": snapshot.price_per_mwh,
                    "renewable_share": snapshot.renewable_share,
                }
                for session, snapshot in zip(candidates, snapshots)
            ],
        }
