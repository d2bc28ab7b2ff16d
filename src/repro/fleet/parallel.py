"""Process-parallel fleet stepping: per-site simulators on worker processes.

The serial :class:`~repro.fleet.simulator.FleetSimulator` loop advances every
member site on one core, so fleet wall-clock grows linearly with fleet size.
This module moves the expensive part — the per-site
:class:`~repro.cluster.simulator.ClusterSimulator` event loops — onto worker
processes while the *routing* stays in the coordinator, which is what keeps
parallel runs bit-identical to serial ones:

* Each worker process hosts one or more member sites (assigned round-robin by
  member index) and gets the run's sorted job trace once, as a process
  argument.  It speaks a small command protocol over a duplex
  :func:`multiprocessing.Pipe`: ``begin`` / ``advance`` / ``snapshot`` /
  ``finalize`` / ``stop``.
* The coordinator routes one hourly window at a time from the workers'
  :class:`~repro.fleet.routing.SiteSnapshot`\\ s and records each routed job
  as its *position* in the trace.  The window's positions ride in the
  ``advance`` command itself (``snapshot`` and ``finalize`` carry them the
  same way); the host that steps a site clones ``trace[position]`` and
  submits the clone before it advances.  No :class:`~repro.scheduler.job.Job`
  crosses a pipe.
* The ``advance`` reply carries the post-advance snapshot of every hosted
  site, so routing the next window needs no extra exchange: steady state is
  exactly one message down and one message up, per worker, per window.

Routers (which may be stateful, e.g. ``round-robin``'s cursor) never cross
the process boundary, job batches are routed in trace order, and workers
execute the identical ``submit → advance`` sequence the serial loop would —
same dispatch order, same event order, bit-identical per-site job records.

Worker death (a crash, an OOM kill) surfaces as a typed
:class:`~repro.errors.FleetError` naming the member sites the dead worker
hosted; worker-side exceptions are forwarded verbatim and re-raised as
:class:`FleetError` by the coordinator.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from ..cluster.simulator import ClusterSimulator, SimulationConfig, SimulationResult
from ..core.levers import build_simulator
from ..errors import FleetError, SimulationError
from ..experiments.spec import ScenarioSpec
from ..grid.iso_ne import IsoNeLikeGrid
from ..obs.recorder import NULL_RECORDER, SpanRecord, TraceRecorder, get_recorder, set_recorder
from ..scheduler.job import Job
from .routing import SiteSnapshot

#: Per-site trace positions to submit, keyed by member index, each list in
#: dispatch order.
_Positions = Mapping[int, Sequence[int]]

__all__ = [
    "SitePayload",
    "SiteFinal",
    "SiteHost",
    "FleetWorkerPool",
    "fleet_start_method",
]


def fleet_start_method() -> str:
    """The multiprocessing start method fleet workers use.

    ``fork`` where the platform offers it: workers inherit the registries
    (custom policies, scorers, scheduler stages), the shipped substrates and
    the job trace without a pickling round trip.  A worker's start is then
    building its sites' simulators plus, for a grid whose hourly series the
    coordinator has not read yet, deriving those series (:class:`SitePayload`):
    about 90 ms for a worker hosting five 24-month sites on a 2-vCPU Xeon
    host.  Elsewhere (``spawn`` platforms) the payloads and the trace are
    fully picklable, pickled once per worker at its start, at the cost of a
    slower worker start.
    """
    return "fork" if "fork" in mp.get_all_start_methods() else mp.get_start_method(allow_none=False)


@dataclass(frozen=True)
class SitePayload:
    """Everything a worker needs to build one member site's simulator.

    The substrates are the coordinator session's objects, shipped rather
    than rebuilt, so the worker's simulator consumes bit-identical inputs to
    a serial run over the same session.  ``weather_hourly_c`` is a built
    array.  ``grid`` derives its hourly series on first read and caches them
    on the object (:class:`~repro.grid.iso_ne.IsoNeLikeGrid`), so a worker
    reads the coordinator's series when the coordinator has read them
    before the fork, and derives its own equal copy, in milliseconds,
    otherwise.
    """

    index: int
    spec: ScenarioSpec
    policy: str
    horizon_h: float
    power_cap_fraction: Optional[float]
    weather_hourly_c: np.ndarray
    grid: IsoNeLikeGrid


@dataclass(frozen=True)
class SiteFinal:
    """One site's end-of-run payload: its result and the wall time spent
    advancing it.

    ``advance_wall_s`` is a plain ``perf_counter`` sum, kept whether or not
    tracing is on (:class:`~repro.fleet.result.FleetStepTimings` reads it).
    ``spans`` holds the ``fleet.site_advance`` spans recorded while stepping
    the site, one per window, only when the run is traced.
    """

    result: SimulationResult
    advance_wall_s: float
    spans: tuple[SpanRecord, ...] = ()


def build_site_simulator(payload: SitePayload) -> ClusterSimulator:
    """Construct one member site's simulator from its shipped payload.

    Raises the same :class:`FleetError` in both stepping modes, so a member
    that cannot host the horizon fails identically serial and parallel.
    """
    try:
        return build_simulator(
            payload.spec,
            payload,
            payload.policy,
            SimulationConfig(horizon_h=payload.horizon_h),
            power_cap_fraction=payload.power_cap_fraction,
        )
    except SimulationError as exc:
        raise FleetError(
            f"fleet member {payload.spec.name!r} cannot host a "
            f"{payload.horizon_h / 24.0:.1f}-day horizon: {exc}"
        ) from None


class SiteHost:
    """The member sites one process steps: the serial backend and a worker.

    Speaks the bulk operations of :class:`FleetWorkerPool` (``begin``,
    ``advance``, ``snapshot``, ``finalize``), so
    :meth:`~repro.fleet.simulator.FleetSimulator.run` drives both stepping
    modes with one coordinator loop, and a worker process is this class
    behind a pipe.

    ``trace`` is the run's job trace in dispatch order.  ``advance``,
    ``snapshot`` and ``finalize`` first submit the jobs routed since the
    previous command, given as per-site lists of positions in ``trace``: a
    fresh PENDING clone of each, so the trace itself is never mutated.

    Each site's step (submitting its window's jobs, then ``advance``) is
    timed with ``perf_counter``.  With ``traced`` it is also recorded as a
    ``fleet.site_advance`` span into a private recorder, shipped in
    :class:`SiteFinal` for the coordinator to merge, so an untraced run
    builds no spans at all.
    """

    n_workers = 1

    def __init__(
        self, payloads: Sequence[SitePayload], trace: Sequence[Job], *, traced: bool
    ) -> None:
        self._trace = trace
        self._sims = {payload.index: build_site_simulator(payload) for payload in payloads}
        self._names = {payload.index: payload.spec.name for payload in payloads}
        self._indices = sorted(self._sims)
        self._advance_s = dict.fromkeys(self._indices, 0.0)
        self._recorder: Any = TraceRecorder() if traced else NULL_RECORDER

    def __enter__(self) -> "SiteHost":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass

    @property
    def indices(self) -> list[int]:
        """The hosted member indices, ascending."""
        return list(self._indices)

    def _snapshots(self, at_h: float) -> dict[int, SiteSnapshot]:
        return {
            index: SiteSnapshot.of(self._sims[index], index, self._names[index], at_h)
            for index in self._indices
        }

    def _submit(self, index: int, positions: Sequence[int]) -> None:
        submit, trace = self._sims[index].submit, self._trace
        for position in positions:
            submit(trace[position].clone_pending())

    def begin(self) -> dict[int, SiteSnapshot]:
        for index in self._indices:
            self._sims[index].begin()
        return self._snapshots(0.0)

    def snapshot(self, at_h: float, positions: _Positions) -> dict[int, SiteSnapshot]:
        """Submit ``positions``, then per-site routing views at ``at_h``."""
        for index, site_positions in positions.items():
            self._submit(index, site_positions)
        return self._snapshots(at_h)

    def advance(
        self, until_h: float, snapshot_h: float, positions: _Positions
    ) -> dict[int, SiteSnapshot]:
        recorder = self._recorder
        for index in self._indices:
            start = time.perf_counter()
            with recorder.span(
                "fleet.site_advance", site=self._names[index], index=index, until_h=until_h
            ):
                self._submit(index, positions.get(index, ()))
                self._sims[index].advance(until_h)
            self._advance_s[index] += time.perf_counter() - start
        return self._snapshots(snapshot_h)

    def finalize(self, positions: _Positions) -> dict[int, SiteFinal]:
        for index, site_positions in positions.items():
            self._submit(index, site_positions)
        spans: dict[int, list[SpanRecord]] = {index: [] for index in self._indices}
        for record in self._recorder.spans:
            spans[record.attributes["index"]].append(record)
        finals = {}
        for index in self._indices:
            simulator = self._sims[index]
            finals[index] = SiteFinal(
                result=simulator.finalize(),
                advance_wall_s=self._advance_s[index],
                spans=tuple(spans[index]),
            )
        return finals


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _fleet_worker_main(conn: Any, payloads: Sequence[SitePayload], trace: Sequence[Job]) -> None:
    """One worker process: build the hosted sites, then serve the protocol.

    Every command but ``stop`` gets one reply: ``("ok", payload)`` or
    ``("error", message)``.
    """
    # Fork-started workers inherit the coordinator's ambient recorder: site
    # spans are recorded only when it is enabled.  Reset it so instrumented
    # layers in this process stay no-op.
    traced = get_recorder().enabled
    set_recorder(NULL_RECORDER)
    try:
        try:
            host = SiteHost(payloads, trace, traced=traced)
        except Exception as exc:  # noqa: BLE001 - forwarded to the coordinator
            conn.send(("error", str(exc)))
            return
        conn.send(("ok", host.indices))
        handlers = {
            "begin": host.begin,
            "advance": host.advance,
            "snapshot": host.snapshot,
            "finalize": host.finalize,
        }
        while True:
            command, *args = conn.recv()
            if command == "stop":
                return
            handler = handlers.get(command)
            if handler is None:
                conn.send(("error", f"unknown fleet worker command {command!r}"))
                continue
            try:
                reply = handler(*args)
            except Exception as exc:  # noqa: BLE001 - forwarded to the coordinator
                conn.send(("error", str(exc)))
            else:
                conn.send(("ok", reply))
    except (EOFError, OSError, KeyboardInterrupt):  # coordinator went away
        return
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


@dataclass
class _WorkerHandle:
    """One live worker: its process, pipe end, and the site indices it hosts."""

    process: Any
    conn: Any
    site_indices: tuple[int, ...]
    site_names: tuple[str, ...]
    #: Set when the worker died or errored; further exchanges refuse early.
    failed: bool = field(default=False)


class FleetWorkerPool:
    """Coordinator end of the fleet worker protocol.

    Spawns ``n_workers`` processes (capped at the number of sites), assigns
    member sites round-robin by index, hands every worker the whole
    ``trace``, and exposes the protocol as bulk operations over all sites:
    every method sends one message to each worker first and only then
    collects replies, so workers run concurrently.  ``positions`` (per-site
    trace positions to submit before the command runs, see
    :class:`SiteHost`) are split so each worker gets its own sites' lists.

    Use as a context manager; :meth:`close` is idempotent and always
    terminates stragglers.
    """

    def __init__(
        self, payloads: Sequence[SitePayload], trace: Sequence[Job], n_workers: int
    ) -> None:
        if not payloads:
            raise FleetError("fleet worker pool needs at least one site payload")
        self._payloads = tuple(payloads)
        self._trace = trace
        self.n_workers = max(1, min(int(n_workers), len(self._payloads)))
        self.workers: list[_WorkerHandle] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the workers and wait until every one has built its sites."""
        context = mp.get_context(fleet_start_method())
        assigned: list[list[SitePayload]] = [[] for _ in range(self.n_workers)]
        for position, payload in enumerate(self._payloads):
            assigned[position % self.n_workers].append(payload)
        for worker_payloads in assigned:
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_fleet_worker_main,
                args=(child_conn, worker_payloads, self._trace),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self.workers.append(
                _WorkerHandle(
                    process=process,
                    conn=parent_conn,
                    site_indices=tuple(p.index for p in worker_payloads),
                    site_names=tuple(p.spec.name for p in worker_payloads),
                )
            )
        # The build acknowledgement doubles as the construction error channel.
        for worker in self.workers:
            self._recv(worker)

    def __enter__(self) -> "FleetWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker; escalate to terminate/kill for stragglers."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError, ValueError):
                pass
        for worker in self.workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - last resort
                worker.process.kill()
            worker.conn.close()

    # ------------------------------------------------------------------
    # Exchange plumbing
    # ------------------------------------------------------------------
    def _dead(self, worker: _WorkerHandle, cause: str) -> FleetError:
        worker.failed = True
        names = ", ".join(repr(name) for name in worker.site_names)
        return FleetError(
            f"fleet worker hosting site(s) {names} {cause}; "
            "the co-simulation cannot continue"
        )

    def _send(self, worker: _WorkerHandle, message: tuple) -> None:
        if worker.failed:
            raise self._dead(worker, "already failed")
        try:
            worker.conn.send(message)
        except (OSError, BrokenPipeError, ValueError) as exc:
            raise self._dead(worker, f"died (pipe closed: {exc})") from None

    def _recv(self, worker: _WorkerHandle) -> Any:
        try:
            status, payload = worker.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._dead(
                worker, f"died mid-run (exit code {worker.process.exitcode}, {exc!r})"
            ) from None
        if status != "ok":
            worker.failed = True
            names = ", ".join(repr(name) for name in worker.site_names)
            raise FleetError(f"fleet worker hosting site(s) {names} failed: {payload}")
        return payload

    def _collect(self, workers: Sequence[_WorkerHandle]) -> dict[int, Any]:
        merged: dict[int, Any] = {}
        for worker in workers:
            merged.update(self._recv(worker))
        return merged

    # ------------------------------------------------------------------
    # Protocol operations (bulk, over all sites)
    # ------------------------------------------------------------------
    def _exchange(self, command: str, *args: Any, positions: _Positions) -> dict[int, Any]:
        """Send ``command`` with each worker's share of ``positions``; merge replies."""
        for worker in self.workers:
            hosted = worker.site_indices
            share = {index: positions[index] for index in hosted if index in positions}
            self._send(worker, (command, *args, share))
        return self._collect(self.workers)

    def begin(self) -> dict[int, SiteSnapshot]:
        """``begin`` every site; returns each site's snapshot at hour 0."""
        for worker in self.workers:
            self._send(worker, ("begin",))
        return self._collect(self.workers)

    def advance(
        self, until_h: float, snapshot_h: float, positions: _Positions
    ) -> dict[int, SiteSnapshot]:
        """Submit ``positions``, advance every site to ``until_h``; returns
        snapshots at ``snapshot_h``."""
        return self._exchange("advance", until_h, snapshot_h, positions=positions)

    def snapshot(self, at_h: float, positions: _Positions) -> dict[int, SiteSnapshot]:
        """Submit ``positions``; returns per-site snapshots at ``at_h``."""
        return self._exchange("snapshot", at_h, positions=positions)

    def finalize(self, positions: _Positions) -> dict[int, SiteFinal]:
        """Submit ``positions``, finalize every site; returns results and timings."""
        return self._exchange("finalize", positions=positions)
