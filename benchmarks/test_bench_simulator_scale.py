"""PERF-SIM-SCALE — the simulator-core scale ladder (small ... xlarge / fleet).

Every experiment in the reproduction bottoms out in ``ClusterSimulator.run``,
so its speed bounds how many scenarios a campaign can afford.  This benchmark
times the incremental array-backed core on four site sizes:

* **small** — 16 nodes x 4 GPUs, 500 jobs, one week;
* **medium** — 64 nodes x 4 GPUs, 2 000 jobs, 28 days (the profiled workload
  from the perf issue: 11.5 M Python calls and ~4.6 s of profile time on the
  scan-based core);
* **large** — the registered ``supercloud-large`` scenario's facility
  (256 nodes x 8 A100s), 4 000 jobs, 28 days;
* **xlarge** — the registered ``supercloud-xlarge`` scenario's facility
  (1024 nodes x 8 A100s, 8 192 GPUs — the top rung of the scale ladder),
  8 000 jobs, 28 days.

Every tier runs the production ``make_scheduler("backfill")`` pipeline.

It also proves the headroom directly: the pre-refactor scan-based cluster
(whole-cluster ``refresh_state`` sweeps, per-query free-list rebuilds, full
rescans for IT power) is embedded below verbatim and run through the same
event loop on the medium workload.  The incremental core must beat it by at
least 5x while producing bit-identical job records, and so must a composed
pipeline (``backfill+carbon(cap=0.7)``), so per-job stage dispatch cannot
erode the simulator-core win.

Two **fleet** tiers gate the multi-site co-simulation layer:

* **lockstep overhead** — stepping a 3x ``supercloud-small`` fleet in hourly
  lockstep (routing included) must cost at most 1.5x the summed CPU time of
  running each member site standalone on its assigned jobs (median of 9
  paired rounds), with bit-identical per-site job records;
* **parallel speedup** — stepping the 4-site ``quad-climate-medium`` fleet
  with per-site simulators on worker processes must produce records
  bit-identical to the serial in-process loop, and on a machine with at least
  4 usable cores it must run at least 2x faster than serial.
"""

from __future__ import annotations

import enum
import gc
import itertools
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from benchmarks._report import print_header, print_rows
from repro.climate.weather import WeatherModel
from repro.cluster.cooling import CoolingModel
from repro.cluster.resources import Cluster
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.config import FacilityConfig
from repro.core.levers import make_scheduler
from repro.errors import ResourceError
from repro.experiments.spec import get_scenario
from repro.grid.iso_ne import IsoNeLikeGrid
from repro.timeutils import SimulationCalendar
from repro.workloads.demand import DeadlineDemandModel
from repro.workloads.supercloud import SuperCloudTraceConfig, SuperCloudTraceGenerator

SEED = 0
HORIZON_28D = 28 * 24.0

LARGE_SCENARIO = get_scenario("supercloud-large")
XLARGE_SCENARIO = get_scenario("supercloud-xlarge")

#: tier -> (facility, gpu_model, n_jobs, horizon_h)
TIERS: dict[str, tuple[FacilityConfig, str, int, float]] = {
    "small": (FacilityConfig(n_nodes=16, gpus_per_node=4), "V100", 500, 7 * 24.0),
    "medium": (FacilityConfig(n_nodes=64, gpus_per_node=4), "V100", 2000, HORIZON_28D),
    "large": (LARGE_SCENARIO.facility, LARGE_SCENARIO.workload.gpu_model, 4000, HORIZON_28D),
    "xlarge": (
        XLARGE_SCENARIO.facility,
        XLARGE_SCENARIO.workload.gpu_model,
        8000,
        HORIZON_28D,
    ),
}


def _build_world(tier: str):
    facility, gpu_model, n_jobs, horizon_h = TIERS[tier]
    calendar = SimulationCalendar(start_year=2020, n_months=2)
    weather = WeatherModel(seed=SEED).hourly_temperature_c(calendar)
    grid = IsoNeLikeGrid(calendar, seed=SEED)
    generator = SuperCloudTraceGenerator(
        SuperCloudTraceConfig(facility=facility, gpu_model=gpu_model),
        demand_model=DeadlineDemandModel(seed=SEED),
        seed=SEED,
    )
    jobs = generator.generate_jobs(n_jobs=n_jobs, horizon_h=horizon_h)
    return facility, gpu_model, weather, grid, jobs, horizon_h


@pytest.fixture(scope="module")
def worlds():
    return {tier: _build_world(tier) for tier in TIERS}


def _run(cluster, weather, grid, jobs, horizon_h, policy="backfill"):
    simulator = ClusterSimulator(
        cluster,
        make_scheduler(policy),
        SimulationConfig(horizon_h=horizon_h),
        weather_hourly_c=weather,
        cooling=CoolingModel(),
        grid=grid,
    )
    return simulator.run([job.clone_pending() for job in jobs])


@pytest.mark.parametrize("tier", list(TIERS))
def test_bench_simulator_scale(benchmark, worlds, tier):
    facility, gpu_model, weather, grid, jobs, horizon_h = worlds[tier]
    result = benchmark.pedantic(
        lambda: _run(Cluster(facility, gpu_model=gpu_model), weather, grid, jobs, horizon_h),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    print_header(f"Simulator scale tier: {tier}")
    print_rows(
        [
            {
                "nodes": facility.n_nodes,
                "gpus": facility.total_gpus,
                "jobs": len(jobs),
                "horizon_d": horizon_h / 24.0,
                "completed": result.completed_jobs,
                "delivered_gpu_h": result.delivered_gpu_hours,
                "facility_energy_kwh": result.facility_energy_kwh,
            }
        ]
    )
    assert result.completed_jobs > 0.9 * len(jobs)
    assert result.facility_energy_kwh > 0


# ---------------------------------------------------------------------------
# Cold substrate builds: what a fresh session (or forked fleet worker) pays
# ---------------------------------------------------------------------------


def test_bench_scenario_build(benchmark):
    """Fresh-session scenario builds for the 10 ``deca-continental-small`` members.

    Each round starts from a new :class:`ExperimentSession`, so nothing is
    cached: it builds every member's weather, load trace and grid, and reads
    the grid series a simulator consumes (carbon intensity, price, renewable
    share), which a forked fleet worker derives on its first read.  The fleet
    benchmarks pre-build their substrates, so only this one times that path.
    """
    from repro.experiments import ExperimentSession
    from repro.fleet import get_fleet

    members = get_fleet("deca-continental-small").members
    # Timed here rather than read from ``benchmark.stats``, which
    # ``--benchmark-disable`` leaves unset (it then calls ``build_all`` once).
    walls: list[float] = []

    def build_all():
        start = time.perf_counter()
        session = ExperimentSession(members[0])
        scenarios = [session.scenario(member) for member in members]
        for scenario in scenarios:
            grid = scenario.grid
            grid.carbon_intensity_g_per_kwh, grid.price_per_mwh, grid.renewable_share
        walls.append(time.perf_counter() - start)
        return scenarios

    scenarios = benchmark.pedantic(build_all, rounds=5, iterations=1, warmup_rounds=1)
    print_header("Cold scenario builds (10x deca-continental-small members)")
    print_rows(
        [
            {
                "members": len(scenarios),
                "hours_per_member": scenarios[0].calendar.total_hours,
                "min_s": min(walls),
            }
        ]
    )
    for scenario in scenarios:
        assert scenario.grid.carbon_intensity_g_per_kwh.shape == (
            scenario.calendar.total_hours,
        )


# ---------------------------------------------------------------------------
# The pre-refactor scan-based cluster, embedded verbatim as the speed baseline
# ---------------------------------------------------------------------------


@dataclass
class _LegacyGpu:
    node_id: int
    index: int
    allocated_job_id: Optional[str] = None
    power_limit_w: Optional[float] = None
    utilization: float = 0.0

    @property
    def is_free(self) -> bool:
        return self.allocated_job_id is None


class _LegacyNodeState(enum.Enum):
    IDLE = "idle"
    ACTIVE = "active"
    DRAINED = "drained"


@dataclass
class _LegacyNode:
    node_id: int
    gpus: list

    state: "_LegacyNodeState" = _LegacyNodeState.IDLE

    @property
    def free_gpus(self) -> list:
        if self.state is _LegacyNodeState.DRAINED:
            return []
        return [g for g in self.gpus if g.is_free]

    @property
    def n_free_gpus(self) -> int:
        return len(self.free_gpus)

    @property
    def is_occupied(self) -> bool:
        return any(not g.is_free for g in self.gpus)

    def refresh_state(self) -> None:
        if self.state is _LegacyNodeState.DRAINED:
            return
        self.state = _LegacyNodeState.ACTIVE if self.is_occupied else _LegacyNodeState.IDLE


class LegacyScanCluster:
    """The seed implementation's cluster: whole-cluster scans on every query."""

    def __init__(self, facility: FacilityConfig, gpu_model: str = "V100") -> None:
        from repro.telemetry.gpu_power import GpuPowerModel, get_gpu_spec

        self.facility = facility
        self.gpu_spec = get_gpu_spec(gpu_model)
        self.gpu_power_model = GpuPowerModel(self.gpu_spec)
        self.nodes = [
            _LegacyNode(
                node_id=node_id,
                gpus=[_LegacyGpu(node_id=node_id, index=i) for i in range(facility.gpus_per_node)],
            )
            for node_id in range(facility.n_nodes)
        ]
        self._allocations = {}

    @property
    def n_free_gpus(self) -> int:
        return sum(node.n_free_gpus for node in self.nodes)

    def can_fit(self, n_gpus: int) -> bool:
        if n_gpus <= 0:
            raise ResourceError(f"n_gpus must be positive, got {n_gpus!r}")
        return self.n_free_gpus >= n_gpus

    def iter_gpus(self):
        return itertools.chain.from_iterable(node.gpus for node in self.nodes)

    def allocate(self, job_id, n_gpus, *, utilization=1.0, power_limit_w=None, pack=True):
        from repro.cluster.resources import Allocation

        if job_id in self._allocations:
            raise ResourceError(f"job {job_id!r} already holds an allocation")
        if not self.can_fit(n_gpus):
            raise ResourceError(f"cannot allocate {n_gpus} GPUs")
        candidates = [node for node in self.nodes if node.n_free_gpus > 0]
        chosen = []
        if pack:
            candidates.sort(key=lambda node: (node.n_free_gpus, node.node_id))
            for node in candidates:
                for gpu in node.free_gpus:
                    chosen.append(gpu)
                    if len(chosen) == n_gpus:
                        break
                if len(chosen) == n_gpus:
                    break
        else:
            free_by_node = {node.node_id: list(node.free_gpus) for node in candidates}
            while len(chosen) < n_gpus:
                node_id = max(free_by_node, key=lambda nid: (len(free_by_node[nid]), -nid))
                chosen.append(free_by_node[node_id].pop(0))
                if not free_by_node[node_id]:
                    del free_by_node[node_id]
        locations = []
        for gpu in chosen:
            gpu.allocated_job_id = job_id
            gpu.utilization = float(utilization)
            gpu.power_limit_w = power_limit_w
            locations.append((gpu.node_id, gpu.index))
        for node in self.nodes:
            node.refresh_state()
        # The simulator bills a job's energy from its record's per-GPU power.
        utilization = float(utilization)
        per_gpu_power = self.gpu_power_model.power_w_scalar(utilization, power_limit_w)
        allocation = Allocation(job_id, tuple(locations), utilization, power_limit_w, per_gpu_power)
        self._allocations[job_id] = allocation
        return allocation

    def release(self, job_id):
        allocation = self._allocations.pop(job_id, None)
        if allocation is None:
            raise ResourceError(f"job {job_id!r} holds no allocation")
        gpu_by_location = {(g.node_id, g.index): g for g in self.iter_gpus()}
        for location in allocation.gpu_locations:
            gpu = gpu_by_location[location]
            gpu.allocated_job_id = None
            gpu.utilization = 0.0
            gpu.power_limit_w = None
        for node in self.nodes:
            node.refresh_state()
        return allocation

    def it_power_w(self) -> float:
        power = 0.0
        busy_utils, busy_caps = [], []
        for node in self.nodes:
            if node.state is _LegacyNodeState.DRAINED:
                continue
            power += self.facility.node_idle_power_w
            occupied = False
            for gpu in node.gpus:
                if gpu.is_free:
                    power += self.gpu_spec.idle_power_w
                else:
                    occupied = True
                    busy_utils.append(gpu.utilization)
                    busy_caps.append(
                        gpu.power_limit_w if gpu.power_limit_w is not None else self.gpu_spec.tdp_w
                    )
            if occupied:
                power += self.facility.node_active_overhead_w
        if busy_utils:
            power += float(
                np.sum(self.gpu_power_model.power_w(np.asarray(busy_utils), np.asarray(busy_caps)))
            )
        return power


def test_bench_incremental_vs_scan_speedup(worlds):
    """The tentpole claim: >= 5x over the scan-based core on the profiled workload.

    Both the canned ``backfill`` pipeline and a composed one
    (``backfill+carbon(cap=0.7)``) must clear the gate on the incremental core.
    """
    facility, gpu_model, weather, grid, jobs, horizon_h = worlds["medium"]

    t0 = time.perf_counter()
    legacy_result = _run(LegacyScanCluster(facility, gpu_model), weather, grid, jobs, horizon_h)
    legacy_s = time.perf_counter() - t0

    def best_of_three(policy):
        walls, result = [], None
        for _ in range(3):
            t0 = time.perf_counter()
            result = _run(
                Cluster(facility, gpu_model=gpu_model), weather, grid, jobs, horizon_h, policy
            )
            walls.append(time.perf_counter() - t0)
        return min(walls), result

    fast_s, fast_result = best_of_three("backfill")
    composed_s, composed_result = best_of_three("backfill+carbon(cap=0.7)")
    speedup = legacy_s / fast_s
    composed_speedup = legacy_s / composed_s

    print_header("Incremental array-backed core vs. pre-refactor scan-based core (medium tier)")
    print_rows(
        [
            {"core": "scan-based (seed), backfill", "wall_s": legacy_s, "speedup": 1.0},
            {"core": "incremental, backfill", "wall_s": fast_s, "speedup": speedup},
            {
                "core": "incremental, backfill+carbon(cap=0.7)",
                "wall_s": composed_s,
                "speedup": composed_speedup,
            },
        ]
    )
    print(f"reading: identical workload, identical job records; {speedup:.1f}x faster event loop")

    # Identical outcomes, much less time.
    assert fast_result.digest() == legacy_result.digest()
    np.testing.assert_allclose(
        fast_result.it_power_w, legacy_result.it_power_w, rtol=1e-9
    )
    assert composed_result.completed_jobs > 0.9 * len(jobs)
    assert speedup >= 5.0, f"expected >= 5x over the scan-based core, got {speedup:.2f}x"
    assert composed_speedup >= 5.0, (
        f"composed pipeline must keep the >=5x gate, got {composed_speedup:.2f}x"
    )


# ---------------------------------------------------------------------------
# Fleet tier: hourly lockstep must not erode the simulator-core win
# ---------------------------------------------------------------------------

FLEET_N_JOBS = 1500
FLEET_HORIZON_H = 7 * 24.0

#: Paired (fleet, standalone) rounds after the discarded warm-up pair.  A
#: pair costs ~0.3 s; 9 pairs once gave a 1.60x median on host noise alone.
LOCKSTEP_PAIRS = 21

#: The median paired CPU-time ratio may not exceed this.  Five 9-pair sets on
#: a 2-vCPU Intel Xeon host gave medians of 1.27-1.33, with single pairs
#: anywhere in 1.01-1.62, so the budget sits above that spread; three 21-pair
#: sets there gave 1.26-1.29.
MAX_LOCKSTEP_OVERHEAD = 1.5


def test_bench_fleet_lockstep_overhead():
    """3x supercloud-small in lockstep: <= 1.5x the summed standalone runs.

    The fleet's extra work per job is the routing decision (one site snapshot
    per member) plus per-hour ``advance`` calls on every site; the event-loop
    work itself is identical to running each site standalone on the jobs the
    router assigned it.  The gate bounds that orchestration overhead, and the
    per-site job records must stay bit-identical to the standalone runs.

    Both sides run in this process, so ``process_time`` measures their whole
    cost without the wall clock's scheduler noise.  The gate takes the median
    of paired ratios: a single disturbed round cannot pass or fail it.
    """
    from repro.experiments import ExperimentSession
    from repro.fleet import FleetSimulator, get_fleet

    fleet = get_fleet("tri-site-small").with_member_overrides(n_months=2)
    session = ExperimentSession(fleet.members[0])
    trace = session.job_trace(
        n_jobs=FLEET_N_JOBS, horizon_h=FLEET_HORIZON_H, spec=fleet.members[0]
    )
    # Pre-build every member's substrates so neither side pays construction.
    for member in fleet.members:
        session.scenario(member)

    def fleet_run():
        return FleetSimulator(
            fleet, router="round-robin", horizon_h=FLEET_HORIZON_H, session=session
        ).run(trace)

    fleet_result = fleet_run()  # warm-up; also yields the assignment split

    # Each member standalone, on exactly the jobs the fleet assigned it.
    by_site = {name: [] for name in fleet.member_names}
    jobs_by_id = {job.job_id: job for job in trace}
    for assignment in fleet_result.assignments:
        by_site[assignment.site_name].append(jobs_by_id[assignment.job_id])

    def standalone_run(member, jobs):
        scenario = session.scenario(member)
        simulator = ClusterSimulator(
            Cluster(member.facility, gpu_model=member.workload.gpu_model),
            make_scheduler("backfill"),
            SimulationConfig(horizon_h=FLEET_HORIZON_H),
            weather_hourly_c=scenario.weather_hourly_c,
            cooling=CoolingModel(),
            grid=scenario.grid,
        )
        return simulator.run([job.clone_pending() for job in jobs])

    def standalone_runs():
        return [standalone_run(member, by_site[member.name]) for member in fleet.members]

    def timed(run):
        gc.collect()
        t0 = time.process_time()
        result = run()
        return time.process_time() - t0, result

    # A discarded warm-up pair, timed like the measured ones.
    timed(standalone_runs)
    timed(fleet_run)

    # Alternate which side goes first so drift within a pair hits both alike.
    fleet_cpu, standalone_cpu, ratios = [], [], []
    for round_index in range(LOCKSTEP_PAIRS):
        if round_index % 2 == 0:
            standalone_s, standalone_results = timed(standalone_runs)
            fleet_s, fleet_result = timed(fleet_run)
        else:
            fleet_s, fleet_result = timed(fleet_run)
            standalone_s, standalone_results = timed(standalone_runs)
        fleet_cpu.append(fleet_s)
        standalone_cpu.append(standalone_s)
        ratios.append(fleet_s / standalone_s)
    overhead = float(np.median(ratios))

    print_header("Fleet lockstep vs. standalone member runs (3x supercloud-small)")
    print_rows(
        [
            {"mode": "standalone sum", "median_cpu_s": float(np.median(standalone_cpu)), "ratio": 1.0},
            {"mode": "fleet lockstep", "median_cpu_s": float(np.median(fleet_cpu)), "ratio": overhead},
        ]
    )
    print(
        f"reading: {FLEET_N_JOBS} jobs routed round-robin across "
        f"{fleet.n_sites} sites; median lockstep overhead {overhead:.2f}x over "
        f"{LOCKSTEP_PAIRS} pairs (range {min(ratios):.2f}-{max(ratios):.2f}x)"
    )

    for site_result, standalone in zip(fleet_result.site_results, standalone_results):
        assert site_result.digest() == standalone.digest()
    assert fleet_result.completed_jobs > 0.9 * FLEET_N_JOBS
    assert overhead <= MAX_LOCKSTEP_OVERHEAD, (
        f"fleet lockstep overhead must stay <= {MAX_LOCKSTEP_OVERHEAD}x the summed "
        f"standalone runs (median of {LOCKSTEP_PAIRS} paired CPU-time ratios), "
        f"got {overhead:.2f}x"
    )


# ---------------------------------------------------------------------------
# Fleet tier: parallel stepping must beat serial on a 4+-site fleet
# ---------------------------------------------------------------------------

FLEET_PARALLEL_N_JOBS = 20_000
FLEET_PARALLEL_HORIZON_H = 7 * 24.0
FLEET_PARALLEL_WORKERS = 4


def _usable_cores() -> int:
    import os

    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def test_bench_fleet_parallel_speedup(benchmark):
    """4x supercloud-medium on worker processes: bit-identical and >= 2x serial.

    The parallel backend hosts each member's ``ClusterSimulator`` on a worker
    process and steps the hourly windows concurrently while routing stays in
    the coordinator, so the records must match the serial in-process loop
    bit-for-bit — that part is asserted unconditionally.  The >= 2x speed gate
    only applies when the machine actually has >= 4 usable cores (CI runners
    do); on smaller machines the timings are still printed so the IPC
    overhead stays visible in the report.
    """
    from repro.experiments import ExperimentSession
    from repro.fleet import FleetSimulator, get_fleet
    from repro.parallel import ParallelConfig

    fleet = get_fleet("quad-climate-medium").with_member_overrides(n_months=2)
    session = ExperimentSession(fleet.members[0])
    trace = session.job_trace(
        n_jobs=FLEET_PARALLEL_N_JOBS,
        horizon_h=FLEET_PARALLEL_HORIZON_H,
        spec=fleet.members[0],
    )
    # Pre-build every member's substrates so neither stepping mode pays
    # construction; the parallel backend ships them to workers via fork.
    for member in fleet.members:
        session.scenario(member)

    def fleet_run(parallel=None):
        return FleetSimulator(
            fleet,
            router="least-queued",
            horizon_h=FLEET_PARALLEL_HORIZON_H,
            parallel=parallel,
            session=session,
        ).run(trace)

    serial_walls, serial_result = [], None
    for _ in range(3):
        t0 = time.perf_counter()
        serial_result = fleet_run()
        serial_walls.append(time.perf_counter() - t0)
    serial_s = min(serial_walls)

    parallel_walls = []

    def parallel_run():
        t0 = time.perf_counter()
        result = fleet_run(parallel=ParallelConfig(n_workers=FLEET_PARALLEL_WORKERS))
        parallel_walls.append(time.perf_counter() - t0)
        return result

    parallel_result = benchmark.pedantic(
        parallel_run, rounds=3, iterations=1, warmup_rounds=0
    )
    parallel_s = min(parallel_walls)
    speedup = serial_s / parallel_s
    cores = _usable_cores()

    timings = parallel_result.step_timings
    print_header(
        "Fleet parallel stepping vs. serial lockstep (4x supercloud-medium)"
    )
    print_rows(
        [
            {"mode": "serial in-process", "wall_s": serial_s, "speedup": 1.0},
            {
                "mode": f"parallel x{timings.n_workers}",
                "wall_s": parallel_s,
                "speedup": speedup,
            },
        ]
    )
    print(
        f"reading: {FLEET_PARALLEL_N_JOBS} jobs routed least-queued across "
        f"{fleet.n_sites} sites on {cores} usable core(s); route "
        f"{timings.route_s:.3f}s, max site advance "
        f"{timings.max_site_advance_s:.3f}s"
    )

    # Parity by construction: routing stays in the coordinator, so the
    # assignments and every site's job records match bit-for-bit.
    assert timings.mode == "parallel"
    assert parallel_result.digest() == serial_result.digest()

    if cores >= FLEET_PARALLEL_WORKERS:
        assert speedup >= 2.0, (
            f"parallel fleet stepping must be >= 2x serial on a "
            f"{fleet.n_sites}-site fleet with {cores} usable cores, "
            f"got {speedup:.2f}x"
        )
    else:
        print(
            f"note: only {cores} usable core(s) — the >= 2x gate needs "
            f">= {FLEET_PARALLEL_WORKERS}; parity still asserted"
        )
