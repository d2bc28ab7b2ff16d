"""The multi-site fleet co-simulator.

A :class:`FleetSimulator` builds one
:class:`~repro.cluster.simulator.ClusterSimulator` per member site of a
:class:`~repro.fleet.spec.FleetSpec` (each against its *own* weather, cooling
and grid substrates) and steps them in hourly lockstep via the simulator's
stepping API: at each hour boundary the jobs arriving in the next window are
dispatched to a site by the routing policy, then every site advances one hour.

Because the per-site event order is exactly what a monolithic single-site
``run()`` of the same assigned jobs would produce, a one-site fleet
reproduces the single-site :class:`~repro.experiments.ExperimentSession`
results **bit-identically** — the parity anchor of the subsystem's tests —
and every fleet total is the exact sum of its member-site totals.

The member sites step either in-process (the default) or on worker processes
(``parallel=ParallelConfig(n_workers=N)``, see :mod:`repro.fleet.parallel`).
Both modes share this module's coordinator loop — routing state, in-window
snapshot bumping, dispatch order — and both step the same
:class:`ClusterSimulator` against the same shipped substrates, so their
per-site job records are bit-identical; only the wall-clock differs.

The shared workload arrives from the first member's trace configuration (one
generator, one seed), mirroring
:meth:`~repro.experiments.ExperimentSession.job_trace`; substrates are built
through an (optionally shared) session, so comparing R routers on the same
fleet builds each site's world once, not R times.
"""

from __future__ import annotations

import math
import time
from typing import Mapping, Optional, Sequence, Union

from ..errors import FleetError
from ..experiments.session import ExperimentSession
from ..obs.profile import RunProfile
from ..obs.recorder import get_recorder
from ..parallel.pool import ParallelConfig
from ..scheduler.job import Job
from .parallel import FleetWorkerPool, SiteHost, SitePayload
from .result import FleetResult, FleetStepTimings, JobAssignment
from .routing import Router, SiteSnapshot, make_router
from .spec import FleetSpec

__all__ = ["FleetSimulator"]


class FleetSimulator:
    """Co-simulates a fleet's member sites under a geo-aware routing policy.

    Parameters
    ----------
    fleet:
        The fleet to simulate — a :class:`FleetSpec` or a registered fleet
        name.
    router:
        Routing policy override: a spec string in the
        :mod:`~repro.fleet.routing` grammar or a :class:`Router` instance;
        ``None`` uses the fleet's own default.
    policy:
        Per-site scheduling policy (registered name or pipeline spec string),
        applied at every member site.
    horizon_h:
        Simulated horizon in hours (shared by all sites).
    power_cap_fraction:
        Optional GPU power-cap lever handed to the per-site scheduler.
    parallel:
        Execution configuration for the stepping itself.  ``None`` or a
        resolved worker count of 1 steps every site in-process (serial
        lockstep); more than one worker steps the sites on worker processes
        (:mod:`repro.fleet.parallel`) with bit-identical per-site records.
        Each worker gets the job trace once, at its start; a window then
        costs one message down and one up per worker, carrying trace
        positions and site snapshots, never jobs.
        ``n_workers=0`` means "all cores".  Unlike the sweep layer,
        ``min_tasks_for_processes`` does not apply here — an explicit
        multi-worker request always parallelises, even a one-site fleet
        (which is how the degenerate parity tests exercise the worker path).
    session:
        Substrate cache to build member worlds through; a private
        :class:`ExperimentSession` keyed to the first member is created when
        omitted.  Passing the experiment's session shares weather/trace/grid
        builds across routers and campaign points.
    """

    def __init__(
        self,
        fleet: Union[FleetSpec, str],
        *,
        router: Union[str, Router, None] = None,
        policy: str = "backfill",
        horizon_h: float = 7 * 24.0,
        power_cap_fraction: Optional[float] = None,
        parallel: Optional[ParallelConfig] = None,
        session: Optional[ExperimentSession] = None,
    ) -> None:
        if isinstance(fleet, str):
            from .spec import get_fleet

            fleet = get_fleet(fleet)
        self.fleet = fleet
        self.router: Router = make_router(router if router is not None else fleet.router)
        self.policy = policy
        self.horizon_h = float(horizon_h)
        self.power_cap_fraction = power_cap_fraction
        self.parallel = parallel
        self._session = session if session is not None else ExperimentSession(fleet.members[0])

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _site_payloads(self) -> list[SitePayload]:
        """One buildable payload per member, substrates already built.

        The session builds (and caches) each member's weather and grid once;
        payloads ship those arrays to whichever backend steps the site, so
        serial and parallel runs consume bit-identical substrate inputs.
        """
        payloads = []
        for index, spec in enumerate(self.fleet.members):
            scenario = self._session.scenario(spec)
            payloads.append(
                SitePayload(
                    index=index,
                    spec=spec,
                    policy=self.policy,
                    horizon_h=self.horizon_h,
                    power_cap_fraction=self.power_cap_fraction,
                    weather_hourly_c=scenario.weather_hourly_c,
                    grid=scenario.grid,
                )
            )
        return payloads

    def _requested_workers(self) -> int:
        """The resolved stepping worker count (1 = serial lockstep)."""
        if self.parallel is None:
            return 1
        return self.parallel.resolved_workers()

    def shared_job_trace(self, *, n_jobs: int = 300) -> list[Job]:
        """The fleet's shared workload: the first member's generated trace."""
        return self._session.job_trace(
            n_jobs=n_jobs, horizon_h=self.horizon_h, spec=self.fleet.members[0]
        )

    # ------------------------------------------------------------------
    # The lockstep loop
    # ------------------------------------------------------------------
    def run(self, jobs: Optional[Sequence[Job]] = None, *, n_jobs: int = 300) -> FleetResult:
        """Co-simulate the fleet over a job trace and return the fleet result.

        ``jobs`` defaults to the shared workload trace
        (:meth:`shared_job_trace`); explicit traces are dispatched in a
        stable sort by submit time.  Routing records each job's position in
        that sorted copy, and the host stepping the chosen site submits a
        fresh clone of it, so the input trace is never mutated and can be
        reused across routers and runs.
        """
        trace = list(jobs) if jobs is not None else self.shared_job_trace(n_jobs=n_jobs)
        # Stable sort: same-instant jobs keep trace order, so a site's event
        # sequence is identical to a monolithic run of its assigned jobs.
        trace.sort(key=lambda job: job.submit_time_h)

        members = self.fleet.members
        member_names = self.fleet.member_names
        workers = self._requested_workers()
        mode = "parallel" if workers > 1 else "serial"
        payloads = self._site_payloads()
        # The loop is timed with plain perf_counter sums in both modes
        # (FleetStepTimings); spans go to the ambient recorder, whose spans
        # cost nothing when tracing is off.
        recorder = get_recorder()
        mark = recorder.mark()
        route_s = advance_s = 0.0
        dispatched = [0] * len(members)
        assignments: list[JobAssignment] = []
        self.router.begin_fleet(len(members))

        def route_window(
            first: int, stop: int, states: Mapping[int, SiteSnapshot], now_h: float, hour: int
        ) -> dict[int, list[int]]:
            """Route the arrivals ``trace[first:stop]``; returns per-site
            trace positions, each list in dispatch order.

            ``states`` are the sites' fresh snapshots; each gets its
            cumulative ``dispatched`` count here, and the receiving site's
            snapshot is bumped in place after each dispatch so routers see
            in-flight arrivals — identical bookkeeping in serial and parallel
            mode.
            """
            snapshots = [states[index] for index in range(len(members))]
            for snapshot in snapshots:
                snapshot.dispatched = dispatched[snapshot.index]
            positions: dict[int, list[int]] = {}
            for position in range(first, stop):
                job = trace[position]
                index = self.router.select(job, snapshots, now_h)
                if not 0 <= index < len(members):
                    raise FleetError(
                        f"router {self.router.name!r} returned site index {index!r} "
                        f"for job {job.job_id!r} (fleet has {len(members)} sites)"
                    )
                dispatched[index] += 1
                chosen = snapshots[index]
                chosen.queue_length += 1
                chosen.dispatched = dispatched[index]
                positions.setdefault(index, []).append(position)
                assignments.append(
                    JobAssignment(
                        job_id=job.job_id,
                        site_index=index,
                        site_name=member_names[index],
                        submit_time_h=job.submit_time_h,
                        dispatch_hour=hour,
                    )
                )
            return positions

        n_hours = int(math.ceil(self.horizon_h))
        cursor = 0
        run_start = time.perf_counter()
        with recorder.span(
            "fleet.run",
            fleet=self.fleet.name,
            router=self.router.name,
            policy=self.policy,
            mode=mode,
            n_sites=len(members),
        ), (
            FleetWorkerPool(payloads, trace, workers)
            if workers > 1
            else SiteHost(payloads, trace, traced=recorder.enabled)
        ) as backend:
            states = backend.begin()
            for hour in range(n_hours):
                # Route this window's arrivals first, then advance every site
                # through the window — submits at instant `hour` must be
                # enqueued before that instant's events are drained, so the
                # advance command carries them.
                stop = cursor
                while stop < len(trace) and trace[stop].submit_time_h < hour + 1:
                    stop += 1
                positions: dict[int, list[int]] = {}
                if stop > cursor:
                    start = time.perf_counter()
                    with recorder.span("fleet.route", hour=hour, n_jobs=stop - cursor):
                        positions = route_window(cursor, stop, states, float(hour), hour)
                    route_s += time.perf_counter() - start
                    cursor = stop
                start = time.perf_counter()
                with recorder.span("fleet.advance", hour=hour):
                    states = backend.advance(hour + 1.0, float(hour + 1), positions)
                advance_s += time.perf_counter() - start
            tail: dict[int, list[int]] = {}
            if cursor < len(trace):
                # Jobs submitting at/after the horizon still get routed (and
                # recorded as never-started), so every generated job is
                # dispatched exactly once.  Their routing context is clamped
                # to the last in-horizon dispatch window: the grid/weather
                # series end at the horizon boundary, and the hour after the
                # simulation ends carries no signal.
                tail_h = min(self.horizon_h, float(max(n_hours - 1, 0)))
                states = backend.snapshot(tail_h, {})
                start = time.perf_counter()
                with recorder.span(
                    "fleet.route", hour=n_hours, n_jobs=len(trace) - cursor, tail=True
                ):
                    tail = route_window(cursor, len(trace), states, tail_h, n_hours)
                route_s += time.perf_counter() - start
            finals = backend.finalize(tail)
        total_s = time.perf_counter() - run_start

        step_timings = FleetStepTimings(
            mode=mode,
            n_workers=backend.n_workers,
            n_windows=n_hours,
            total_s=total_s,
            route_s=route_s,
            advance_s=advance_s,
            site_advance_s=tuple(finals[i].advance_wall_s for i in range(len(members))),
        )
        profile = None
        if recorder.enabled:
            # Merge the per-site stepping spans (recorded by the worker or the
            # in-process host) so an exported trace shows one timeline per
            # site/process.
            for i in range(len(members)):
                recorder.extend(finals[i].spans)
            profile = RunProfile.from_spans(
                recorder.spans_since(mark),
                total_s=total_s,
                metrics=recorder.metrics.snapshot(),
            )
        return FleetResult(
            fleet_name=self.fleet.name,
            router=self.router.name,
            policy=self.policy,
            site_names=member_names,
            site_results=tuple(finals[i].result for i in range(len(members))),
            assignments=tuple(assignments),
            step_timings=step_timings,
            profile=profile,
        )
