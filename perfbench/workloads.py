"""The four workloads, each driven through the public API a user calls.

Every workload has a set-up (the work between process start and the first
timed operation), a timed loop of operations whose outputs are checked
against a reference, and a traced variant that runs whole passes with the
layer wrappers of :mod:`layers` installed.  Inputs come only from the
benchmark seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import bench
import layers

HERE = Path(__file__).resolve().parent

#: Policies of the oversubscribed sweep: plain, deadline-driven and four
#: compositions whose gates and ordering do real work on a deep queue.
SWEEP_POLICIES = (
    "backfill",
    "deadline-aware",
    "edf+backfill+carbon(cap=0.7)",
    "sjf+backfill+renewable(min_share=0.3)+cap(fraction=0.75)",
    "backfill+carbon(cap=0.7)+budget",
    "backfill+adaptive(budget_w=15000)",
)
SWEEP_WORLD_SEEDS = (0, 1)
#: Warm re-sweeps after each cold sweep.
WARM_PER_COLD = 100
#: Warm re-sweeps in one traced sweep pass.
WARM_PER_TRACED_PASS = 5
FLEET_ROUTER = "carbon-min+queue-cap(max=50)"
MONTH_H = 28 * 24.0
#: Setup samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


def digest(value: Any) -> str:
    """A short content hash; floats go through ``repr`` and so stay exact."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def records_digest(records: Any) -> list:
    return [dataclasses.astuple(record) for record in records]


def within_capacity(records: Any, total_gpus: int) -> bool:
    """No instant has more GPUs running than the cluster has (sweep line)."""
    events = []
    for r in records:
        if r.start_time_h is not None:
            end = r.finish_time_h if r.finish_time_h is not None else math.inf
            events += [(r.start_time_h, r.n_gpus), (end, -r.n_gpus)]
    busy = 0
    # Releases sort before starts at the same instant.
    for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
        busy += delta
        if busy > total_gpus:
            return False
    return True


@dataclass
class Tally:
    """Operations attempted and failed (an exception or a failed check)."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


@dataclass
class Measurement:
    """What one untraced run measured, before reduction to metrics."""

    setup_s: list
    #: Trace jobs simulated by the timed operations, their count and total wall time.
    jobs: int
    ops: int
    busy_s: float
    latency_s: list
    peak_rss_mb: float
    #: ``(name, value, unit, samples, note)`` rows printed besides the metrics.
    extras: list = field(default_factory=list)


class Workload:
    """Base class: set-up probes, the timed loop and the traced passes."""

    name = ""
    #: What one sample of ``mean_ms`` (and the printed p50 and tail) times.
    request = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tally = Tally()
        self.digest: Optional[str] = None
        #: ``setup.*`` layer metrics of the traced run.
        self.setup_metrics: dict = {}
        #: Host speed, sampled between the timed operations of an untraced run.
        self.host = bench.HostSpeed()

    # -- hooks -----------------------------------------------------------
    def import_repro(self) -> None:
        """Import what the workload uses (timed as ``setup.import_s``)."""
        import repro.experiments  # noqa: F401

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def traced_pass(self, profiler: Optional[layers.LayerProfiler]) -> tuple[float, dict]:
        """One pass of the traced run: ``(wall_s, workload metrics)``."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- shared ----------------------------------------------------------
    def check_digest(self, value: str, what: str) -> bool:
        if self.digest is None:
            self.digest = value
        return self.tally.op(value == self.digest, f"{what}: digest {value} != {self.digest}")

    def setup_here(self) -> float:
        """Set up this process; returns the time from its start until ready."""
        self.setup()
        return bench.process_age_s()

    def probe_setups(self) -> list:
        """Set up in fresh processes; each sample runs from spawn until ready.

        Called after peak memory is read, so the probes' memory stays out of
        ``RUSAGE_CHILDREN``.
        """
        samples = []
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", self.name,
            "--seed", str(self.seed), "--setup-probe",
        ]
        for _ in range(SETUP_SAMPLES - 1):
            self.host.tick()
            start = time.perf_counter()
            with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
                line = probe.stdout.readline().strip()
                elapsed = time.perf_counter() - start
                probe.stdout.read()
                code = probe.wait()
            if self.tally.op(line == "ready" and code == 0, f"setup probe exited {code}"):
                samples.append(elapsed)
        return samples

    def traced_setup(self, profiler: layers.LayerProfiler) -> None:
        """Set up under the wrappers, recording the set-up layer metrics."""
        layers.install(profiler)
        try:
            with profiler.recorder.span("bench.setup", workload=self.name):
                self.setup()
        finally:
            profiler.uninstall()
        self.setup_metrics["setup.scenario_build_s"] = profiler.total_s("setup.scenario_build")
        self.setup_metrics["setup.job_trace_s"] = profiler.total_s("setup.job_trace")
        profiler.reset()

    def traced(self, seconds: float, profiler: layers.LayerProfiler) -> tuple[list, float]:
        """Alternate untraced and traced passes; at least two of each.

        Returns the traced passes' metric dicts and the traced / untraced
        ratio of median pass wall times.
        """
        walls: dict[bool, list] = {False: [], True: []}
        passes = []
        recorder = profiler.recorder
        start = time.perf_counter()
        while len(walls[True]) < 2 or time.perf_counter() - start < seconds:
            walls[False].append(self.traced_pass(None)[0])
            profiler.reset()
            with recorder.span("bench.pass", workload=self.name, index=len(passes)) as span:
                self.install(profiler)
                try:
                    wall, extra = self.traced_pass(profiler)
                finally:
                    profiler.uninstall()
                metrics = layers.layer_metrics(profiler)
                metrics.update(extra)
                for key, value in metrics.items():
                    span.set(key, value)
            walls[True].append(wall)
            passes.append(metrics)
        overhead = statistics.median(walls[True]) / statistics.median(walls[False])
        return passes, overhead

    def install(self, profiler: layers.LayerProfiler) -> None:
        layers.install(profiler)


class SimXlarge(Workload):
    """1024x8 A100 cluster, 8000 jobs over 28 days, ``backfill``."""

    name = "sim-xlarge"
    request = "one ExperimentSession.simulate_policy run"
    n_jobs = 8000

    def setup(self) -> None:
        from repro.experiments import ExperimentSession

        self.session = ExperimentSession("supercloud-xlarge", seed=self.seed)
        self.session.scenario()
        self.session.job_trace(n_jobs=self.n_jobs, horizon_h=MONTH_H)

    def simulate(self) -> tuple[float, Any]:
        start = time.perf_counter()
        result = self.session.simulate_policy("backfill", n_jobs=self.n_jobs, horizon_h=MONTH_H)
        return time.perf_counter() - start, result

    def check(self, result: Any, what: str) -> None:
        records = result.job_records
        sane = (
            len(records) == self.n_jobs
            and all(r.start_time_h is None or r.start_time_h >= r.submit_time_h for r in records)
            and within_capacity(records, self.session.spec.facility.total_gpus)
        )
        self.tally.op(sane, f"{what}: job records break conservation, ordering or capacity")
        self.check_digest(digest(records_digest(records)), what)

    def measure(self, seconds: float) -> Measurement:
        setup_here = self.setup_here()
        self.check(self.simulate()[1], "warm-up run")
        walls = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(walls) < 3:
            self.host.tick()
            wall, result = self.simulate()
            walls.append(wall)
            self.check(result, f"run {len(walls)}")
        self.host.tick()
        peak_rss_mb = bench.peak_rss_mb()
        return Measurement(
            setup_s=[setup_here] + self.probe_setups(),
            jobs=self.n_jobs * len(walls),
            ops=len(walls),
            busy_s=sum(walls),
            latency_s=walls,
            peak_rss_mb=peak_rss_mb,
        )

    def traced_pass(self, profiler: Optional[layers.LayerProfiler]) -> tuple[float, dict]:
        wall, result = self.simulate()
        self.check(result, "traced run" if profiler else "untraced run")
        return wall, {}


class SweepOversub(Workload):
    """Cold then warm ``run_campaign`` sweeps of 12 points into a fresh store."""

    name = "sweep-oversub"
    request = "one all-hit warm re-sweep"
    n_jobs = 3000

    def setup(self) -> None:
        from repro.artifacts import ArtifactStore
        from repro.experiments import CampaignSpec, run_campaign
        from repro.experiments.campaign import clear_worker_sessions

        self._store_cls = ArtifactStore
        self._run = run_campaign
        self._clear = clear_worker_sessions
        self.campaign = CampaignSpec(
            experiments=("schedule",),
            base="supercloud-small",
            # Fixed worlds: queue depth, and so the work of a cold sweep,
            # swings by half between seeds; the benchmark seed picks the
            # campaign's point seeds and therefore every artifact key.
            scenario_grid={"seed": list(SWEEP_WORLD_SEEDS)},
            param_grid={
                "policy": list(SWEEP_POLICIES),
                "jobs": [self.n_jobs],
                "horizon_days": [MONTH_H / 24.0],
            },
            seed=self.seed,
        )
        self.n_points = len(self.campaign.expand())
        self.root = bench.OUT / f"sweep-{os.getpid()}"
        self.passes = 0

    def sweep(self, store_dir: Path) -> tuple[float, Any]:
        start = time.perf_counter()
        result = self._run(self.campaign, store=self._store_cls(store_dir))
        return time.perf_counter() - start, result

    def cold_then_warm(
        self, n_warm: int, host: Optional[bench.HostSpeed] = None
    ) -> tuple[float, list, dict]:
        """A cold sweep from an empty store and no cached sessions, then warm ones.

        Returns the cold wall time, the warm wall times, and the points, hits
        and misses the sweeps' results reported, summed.  ``host`` is sampled
        between the sweeps.
        """
        tick = host.tick if host is not None else lambda: None
        self.passes += 1
        store_dir = self.root / f"store-{self.passes}"
        shutil.rmtree(store_dir, ignore_errors=True)
        self._clear()
        counts = {"campaign.points": 0, "campaign.cache_hits": 0, "campaign.cache_misses": 0}

        def count(result: Any) -> None:
            counts["campaign.points"] += len(result.points)
            counts["campaign.cache_hits"] += result.cache_hits
            counts["campaign.cache_misses"] += result.cache_misses

        try:
            tick()
            cold_wall, cold = self.sweep(store_dir)
            count(cold)
            rows = json.dumps(cold.rows, sort_keys=True)
            self.tally.op(
                cold.cache_misses == self.n_points and cold.cache_hits == 0,
                f"cold sweep {self.passes}: {cold.cache_hits} hits, {cold.cache_misses} misses",
            )
            self.check_digest(digest(cold.rows), f"cold sweep {self.passes}")
            warm_walls = []
            for _ in range(n_warm):
                tick()
                wall, warm = self.sweep(store_dir)
                count(warm)
                warm_walls.append(wall)
                self.tally.op(
                    warm.cache_hits == self.n_points
                    and warm.cache_misses == 0
                    and json.dumps(warm.rows, sort_keys=True) == rows,
                    f"warm sweep after cold {self.passes}: not all hits or rows differ",
                )
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        return cold_wall, warm_walls, counts

    def measure(self, seconds: float) -> Measurement:
        setup_here = self.setup_here()
        cold_walls, warm_walls = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(cold_walls) < 2:
            cold_wall, warm, _ = self.cold_then_warm(WARM_PER_COLD, self.host)
            cold_walls.append(cold_wall)
            warm_walls.extend(warm)
        self.host.tick()
        peak_rss_mb = bench.peak_rss_mb()
        return Measurement(
            setup_s=[setup_here] + self.probe_setups(),
            jobs=self.n_points * self.n_jobs * len(cold_walls),
            ops=len(cold_walls),
            busy_s=sum(cold_walls),
            latency_s=warm_walls,
            peak_rss_mb=peak_rss_mb,
            extras=[("cold_sweep_s", statistics.median(cold_walls), "s", len(cold_walls), "median")],
        )

    def traced_pass(self, profiler: Optional[layers.LayerProfiler]) -> tuple[float, dict]:
        start = time.perf_counter()
        _, _, counts = self.cold_then_warm(WARM_PER_TRACED_PASS)
        return time.perf_counter() - start, counts

    def close(self) -> None:
        shutil.rmtree(getattr(self, "root", bench.OUT / "none"), ignore_errors=True)


class FleetDeca(Workload):
    """10 continental sites, 10 000 jobs over 7 days, routed and stepped in parallel."""

    name = "fleet-deca"
    request = "one FleetSimulator.run"
    n_jobs = 10_000
    horizon_h = 7 * 24.0

    def import_repro(self) -> None:
        import repro.experiments  # noqa: F401
        import repro.fleet  # noqa: F401

    def setup(self) -> None:
        from repro.experiments import ExperimentSession
        from repro.fleet import get_fleet

        self.fleet = get_fleet("deca-continental-small").with_member_overrides(seed=self.seed)
        self.session = ExperimentSession(self.fleet.members[0])
        for member in self.fleet.members:
            self.session.scenario(member)
        self.session.job_trace(n_jobs=self.n_jobs, horizon_h=self.horizon_h, spec=self.fleet.members[0])
        self.n_workers = min(2, bench.usable_cpus())
        self.dump_dir = bench.OUT / f"fleet-workers-{os.getpid()}"

    def run_fleet(self, workers: int) -> tuple[float, Any]:
        from repro.fleet import FleetSimulator
        from repro.parallel.pool import ParallelConfig

        simulator = FleetSimulator(
            self.fleet,
            router=FLEET_ROUTER,
            policy="backfill",
            horizon_h=self.horizon_h,
            parallel=ParallelConfig(n_workers=workers),
            session=self.session,
        )
        start = time.perf_counter()
        result = simulator.run(n_jobs=self.n_jobs)
        return time.perf_counter() - start, result

    def fleet_digest(self, result: Any) -> str:
        return digest(
            {
                "assignments": [(a.job_id, a.site_index, a.dispatch_hour) for a in result.assignments],
                "sites": [records_digest(r.job_records) for r in result.site_results],
            }
        )

    def check(self, result: Any, what: str) -> None:
        trace_ids = [job.job_id for job in self.session.job_trace(
            n_jobs=self.n_jobs, horizon_h=self.horizon_h, spec=self.fleet.members[0])]
        assigned = [a.job_id for a in result.assignments]
        per_site_ok = all(
            sorted(r.job_id for r in site.job_records)
            == sorted(a.job_id for a in result.assignments if a.site_index == index)
            and within_capacity(site.job_records, member.facility.total_gpus)
            for index, (site, member) in enumerate(zip(result.site_results, self.fleet.members))
        )
        close = lambda a, b: math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)  # noqa: E731
        totals_ok = (
            close(result.facility_energy_kwh, sum(s.facility_energy_kwh for s in result.site_results))
            and close(result.it_energy_kwh, sum(s.it_energy_kwh for s in result.site_results))
            and close(result.total_emissions_kg, sum(s.total_emissions_kg for s in result.site_results))
            and result.completed_jobs == sum(s.completed_jobs for s in result.site_results)
        )
        self.tally.op(
            sorted(assigned) == sorted(trace_ids) and len(set(assigned)) == len(assigned),
            f"{what}: jobs not dispatched exactly once",
        )
        self.tally.op(per_site_ok, f"{what}: a site's records break assignment or capacity")
        self.tally.op(totals_ok, f"{what}: fleet totals differ from the sum of sites")
        self.check_digest(self.fleet_digest(result), what)

    def reference(self) -> None:
        """A serial run, whose digest the parallel runs must reproduce."""
        _, serial = self.run_fleet(1)
        self.check_digest(self.fleet_digest(serial), "serial reference run")

    def measure(self, seconds: float) -> Measurement:
        """Timed parallel runs; the serial reference runs after memory is read.

        ``peak_rss_mb`` is the coordinator's peak plus the largest worker's
        (an upper bound: pages a forked worker shares with the coordinator
        count in both).  The reference runs every site in this process, so it
        comes last, where it moves no figure.
        """
        setup_here = self.setup_here()
        self.check(self.run_fleet(self.n_workers)[1], "warm-up run")
        walls = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(walls) < 3:
            self.host.tick()
            wall, result = self.run_fleet(self.n_workers)
            walls.append(wall)
            self.check(result, f"run {len(walls)}")
        self.host.tick()
        coordinator_mb, worker_mb = bench.peak_rss_mb(), bench.children_peak_rss_mb()
        setup_s = [setup_here] + self.probe_setups()
        self.reference()
        return Measurement(
            setup_s=setup_s,
            jobs=self.n_jobs * len(walls),
            ops=len(walls),
            busy_s=sum(walls),
            latency_s=walls,
            peak_rss_mb=coordinator_mb + worker_mb,
            extras=[
                ("workers", self.n_workers, "count", 1, ""),
                ("coordinator_rss_mb", coordinator_mb, "MB", 1, "peak"),
                ("worker_rss_mb", worker_mb, "MB", 1, "peak of the largest worker"),
            ],
        )

    def install(self, profiler: layers.LayerProfiler) -> None:
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        layers.install(profiler, worker_dump_dir=str(self.dump_dir))

    def traced_pass(self, profiler: Optional[layers.LayerProfiler]) -> tuple[float, dict]:
        if self.digest is None:
            self.reference()
        wall, result = self.run_fleet(self.n_workers)
        self.check(result, "traced run" if profiler else "untraced run")
        if profiler is None:
            return wall, {}
        layers.collect_worker_dumps(profiler, str(self.dump_dir))
        timings = result.step_timings
        sites = timings.site_advance_s
        busiest_worker = max(
            sum(sites[w :: timings.n_workers]) for w in range(timings.n_workers)
        )
        return wall, {
            "fleet.windows": timings.n_windows,
            "fleet.route_s": timings.route_s,
            "fleet.advance_wait_s": timings.advance_s,
            "fleet.site_advance_max_s": max(sites),
            "fleet.site_skew": max(sites) / statistics.mean(sites),
            "fleet.ipc_s": timings.advance_s - busiest_worker,
        }

    def close(self) -> None:
        shutil.rmtree(getattr(self, "dump_dir", bench.OUT / "none"), ignore_errors=True)


class Daemon:
    """One ``greenhpc serve`` process started through ``serve_launcher.py``."""

    def __init__(self, checkpoint_dir: Path, *, layered: bool) -> None:
        self.checkpoint_dir = checkpoint_dir
        command = [
            sys.executable, str(HERE / "serve_launcher.py"),
            "--checkpoint-dir", str(checkpoint_dir),
        ]
        if layered:
            command.append("--layers")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        if "listening on " not in line:
            self.stop()
            raise RuntimeError(f"serve daemon did not start (said {line!r})")
        self.url = line.rsplit(" ", 1)[1].strip()

    def layers(self) -> dict:
        """Counts since the last call, from the launcher's layer endpoint."""
        with urllib.request.urlopen(self.url + "/perfbench/layers", timeout=60) as response:
            return json.loads(response.read())

    def stop(self) -> float:
        """SIGTERM (graceful drain) and wait; returns the daemon's peak RSS in MB."""
        try:
            rss = bench.peak_rss_mb(self.process.pid)
        except (OSError, RuntimeError):
            rss = float("nan")
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
        return rss


class ServeSessions(Workload):
    """A closed-loop client driving two warm sessions on a ``greenhpc serve`` daemon."""

    name = "serve-sessions"
    request = "one advance request (1 simulated hour)"
    sessions = (("med", "supercloud-medium", 2000), ("small", "supercloud-small", 800))
    read_every_h = 6

    def import_repro(self) -> None:
        import repro.serve  # noqa: F401

    def setup(self) -> None:
        from repro.serve import ServeClient

        self._client_cls = ServeClient
        self.root = bench.OUT / f"serve-{os.getpid()}"
        self.daemons = 0
        self.passes = 0
        self.hours = int(MONTH_H)
        self.route_job = {
            "job_id": "what-if", "user_id": "bench", "n_gpus": 4, "duration_h": 6.0,
            "submit_time_h": 0.0,
        }

    def traced_setup(self, profiler: layers.LayerProfiler) -> None:
        """The daemon sets up; :meth:`traced` reads its set-up metrics."""

    def reference(self) -> None:
        """Each session's run done in-process, for the finalize and telemetry checks."""
        from repro.experiments import ExperimentSession

        self.expected = {}
        for label, scenario, n_jobs in self.sessions:
            result = ExperimentSession(scenario, seed=self.seed).simulate_policy(
                "backfill", n_jobs=n_jobs, horizon_h=MONTH_H
            )
            self.expected[label] = (
                json.dumps(result.summary(), sort_keys=True),
                [float(p) for p in result.it_power_w],
            )

    def start_daemon(self, *, layered: bool = False) -> tuple[float, Daemon]:
        """Spawn a daemon and create the first pass's sessions; returns the set-up time."""
        self.daemons += 1
        start = time.perf_counter()
        daemon = Daemon(self.root / f"checkpoints-{self.daemons}", layered=layered)
        self.client = self._client_cls(daemon.url, timeout_s=120)
        self.create_sessions()
        return time.perf_counter() - start, daemon

    def create_sessions(self) -> None:
        self.passes += 1
        self.ids = {}
        for label, scenario, n_jobs in self.sessions:
            status = self.client.create_session(
                session_id=f"{label}-{self.passes}", scenario=scenario, seed=self.seed,
                policy="backfill", horizon_h=MONTH_H, preload_jobs=n_jobs,
            )
            self.ids[label] = status["session_id"]

    def timed(self, samples: list, call: Callable, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - start)
        return result

    def client_pass(
        self, recorder: Any = None, host: Optional[bench.HostSpeed] = None
    ) -> tuple[float, list, list]:
        """Advance both sessions hour by hour to the horizon, reading every 6 h.

        Returns the loop's wall time, less the time spent sampling ``host``
        between hours, and the advance and read latencies.
        """
        client, ids, tally = self.client, self.ids, self.tally
        advances: list = []
        reads: list = []
        cursors = {label: 0 for label in ids}
        powers: dict = {label: [] for label in ids}

        def stream(label: str) -> None:
            rows = self.timed(reads, lambda: list(client.stream_telemetry(ids[label], since=cursors[label])))
            tally.op(all(row["tick"] == cursors[label] + i for i, row in enumerate(rows)), "telemetry gap")
            cursors[label] += len(rows)
            powers[label].extend(row["it_power_w"] for row in rows)

        def span(name: str, **attributes: Any) -> Any:
            return recorder.span(name, **attributes) if recorder is not None else nullcontext()

        probing_s = host.spent_s if host is not None else 0.0
        start = time.perf_counter()
        for hour in range(1, self.hours + 1):
            if host is not None:
                host.tick()
            for label in ids:
                with span("client.advance", session=ids[label], hour=hour):
                    status = self.timed(advances, client.advance, ids[label], float(hour))
                tally.op(status["now_h"] == hour and not status["timed_out"], f"advance to {hour} h")
            if hour % self.read_every_h == 0:
                for label in ids:
                    with span("client.telemetry", session=ids[label]):
                        stream(label)
                    with span("client.status", session=ids[label]):
                        status = self.timed(reads, client.session_status, ids[label])
                    tally.op(status["now_h"] == hour, "status cursor")
                job = dict(self.route_job, submit_time_h=float(hour))
                with span("client.route"):
                    routed = self.timed(reads, client.route, job, router=FLEET_ROUTER)
                tally.op(routed["session_id"] in ids.values(), "route answer")
        summaries = {}
        for label in ids:
            with span("client.finalize", session=ids[label]):
                summaries[label] = json.dumps(client.finalize(ids[label])["summary"], sort_keys=True)
            tally.op(summaries[label] == self.expected[label][0],
                     f"{label} finalize summary differs from simulate_policy")
        wall = time.perf_counter() - start
        if host is not None:
            wall -= host.spent_s - probing_s
        for label in ids:
            stream(label)
            tally.op(powers[label] == self.expected[label][1],
                     f"{label} telemetry differs from simulate_policy")
            client.delete_session(ids[label])
        self.check_digest(digest([summaries, powers]), "finalize summaries and telemetry")
        return wall, advances, reads

    def measure(self, seconds: float) -> Measurement:
        self.setup()
        self.reference()
        setup_s = []
        for _ in range(SETUP_SAMPLES - 1):
            self.host.tick()
            elapsed, daemon = self.start_daemon()
            daemon.stop()
            setup_s.append(elapsed)
        self.host.tick()
        elapsed, daemon = self.start_daemon()
        setup_s.append(elapsed)
        walls, advances, reads = [], [], []
        try:
            start = time.perf_counter()
            while time.perf_counter() - start < seconds or len(walls) < 2:
                if walls:
                    self.create_sessions()
                wall, advance, read = self.client_pass(host=self.host)
                walls.append(wall)
                advances.extend(advance)
                reads.extend(read)
        finally:
            rss = daemon.stop()
        jobs = sum(n for _, _, n in self.sessions)
        read_tail, percentile = bench.tail(reads)
        session_hours = len(self.sessions) * self.hours
        return Measurement(
            setup_s=setup_s,
            jobs=jobs * len(walls),
            ops=len(walls),
            busy_s=sum(walls),
            latency_s=advances,
            peak_rss_mb=rss,
            extras=[
                ("read_p50_ms", 1e3 * statistics.median(reads), "ms", len(reads), "status, telemetry, route"),
                ("read_tail_ms", 1e3 * read_tail, "ms", len(reads), f"p{percentile:.2f}"),
                ("sim_hours_per_s", session_hours * len(walls) / sum(walls),
                 "1/s", len(walls), "session-hours per wall second of the client loop"),
            ],
        )

    def traced(self, seconds: float, profiler: layers.LayerProfiler) -> tuple[list, float]:
        """Untraced passes on a plain daemon, then traced passes on a layered one."""
        self.setup()
        self.reference()
        recorder = profiler.recorder
        deadline = time.perf_counter() + seconds / 2
        _, daemon = self.start_daemon()
        untraced = []
        try:
            while time.perf_counter() < deadline or len(untraced) < 2:
                if untraced:
                    self.create_sessions()
                untraced.append(self.client_pass()[0])
        finally:
            daemon.stop()
        _, daemon = self.start_daemon(layered=True)
        passes, traced = [], []
        try:
            setup = daemon.layers()
            self.setup_metrics = {
                "setup.import_s": setup["import_s"],
                "setup.scenario_build_s": setup["snapshot"]["stats"]["setup.scenario_build"][1],
                "setup.job_trace_s": setup["snapshot"]["stats"]["setup.job_trace"][1],
            }
            deadline = time.perf_counter() + seconds / 2
            while time.perf_counter() < deadline or len(traced) < 2:
                if traced:
                    self.create_sessions()
                    daemon.layers()  # creation is not part of a pass
                with recorder.span("bench.pass", workload=self.name, index=len(passes)) as span:
                    wall, advances, _ = self.client_pass(recorder)
                    payload = daemon.layers()
                    profiler.reset()
                    profiler.merge(payload["snapshot"])
                    metrics = layers.layer_metrics(profiler)
                    metrics["serve.http_overhead_ms"] = (
                        1e3 * statistics.median(advances) - metrics["serve.advance.server_ms"]
                    )
                    for key, value in metrics.items():
                        span.set(key, value)
                recorder.extend(_span_records(payload["spans"]))
                traced.append(wall)
                passes.append(metrics)
        finally:
            daemon.stop()
        return passes, statistics.median(traced) / statistics.median(untraced)

    def close(self) -> None:
        shutil.rmtree(getattr(self, "root", bench.OUT / "none"), ignore_errors=True)


def _span_records(dicts: list) -> list:
    from repro.obs.recorder import SpanRecord

    return [SpanRecord(**d) for d in dicts]


WORKLOADS = {w.name: w for w in (SimXlarge, SweepOversub, FleetDeca, ServeSessions)}
