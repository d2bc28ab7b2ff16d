"""State-parity tests for the incremental array-backed cluster core.

Three layers of evidence that the delta-maintained state model is exact:

1. **Scalar model parity** — the scalar fast paths of
   :class:`~repro.telemetry.gpu_power.GpuPowerModel` are bit-equal to the
   array API they mirror.
2. **Randomized state parity** — random allocate/release/drain/undrain/re-cap
   sequences keep every incremental counter equal to a brute-force recount
   of an in-test reference pool (updated only from the operations the test
   performs), keep the O(1) IT power equal (to float tolerance) to both the
   vectorized recompute checkpoint and a pure-Python reference that
   reproduces the pre-refactor whole-cluster scan arithmetic, keep the
   cluster's public snapshot equal to the reference, and place every
   allocation on exactly the GPUs the whole-cluster-scan placement rule
   picks from the reference.
3. **Seeded end-to-end parity** — a pinned SuperCloud-like workload produces
   *bit-identical* job records (hash-pinned against the pre-refactor
   implementation) under all five scheduling policies, with the O(1) IT
   power agreeing with the full recompute at every job start, finish,
   scheduling round and tick (:class:`PowerParityObserver`).
"""

import numpy as np
import pytest

from repro.climate.weather import WeatherModel
from repro.cluster.cooling import CoolingModel
from repro.cluster.observers import SimulatorObserver
from repro.cluster.resources import Cluster
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.config import FacilityConfig
from repro.grid.iso_ne import IsoNeLikeGrid
from repro.scheduler.compose import build_pipeline
from repro.telemetry.gpu_power import GpuPowerModel, get_gpu_spec
from repro.timeutils import SimulationCalendar
from repro.workloads.demand import DeadlineDemandModel
from repro.workloads.supercloud import SuperCloudTraceConfig, SuperCloudTraceGenerator


# ---------------------------------------------------------------------------
# 1. Scalar fast paths vs. the array API
# ---------------------------------------------------------------------------


class TestScalarModelParity:
    @pytest.fixture(params=["V100", "A100", "T4"])
    def model(self, request) -> GpuPowerModel:
        return GpuPowerModel(get_gpu_spec(request.param))

    def test_power_w_scalar_bit_equal(self, model):
        utils = [0.0, 0.1, 0.33, 0.5, 0.72, 0.9, 1.0, 1.7, -0.2]
        caps = [None, 50.0, 100.0, 150.0, 187.5, 250.0, 400.0, 1000.0]
        for util in utils:
            for cap in caps:
                assert model.power_w_scalar(util, cap) == float(model.power_w(util, cap))

    def test_clamp_and_throughput_scalar_bit_equal(self, model):
        for cap in [10.0, 60.0, 100.0, 175.0, 250.0, 400.0, 999.0]:
            assert model.clamp_power_limit_scalar(cap) == float(model.clamp_power_limit(cap))
            for util in [0.2, 0.72, 1.0]:
                assert model.relative_throughput_scalar(cap, util) == float(
                    model.relative_throughput(cap, util)
                )
                assert model.slowdown_factor_scalar(cap, util) == float(
                    model.slowdown_factor(cap, util)
                )

    def test_uncapped_scalar_bit_equal(self, model):
        for util in np.linspace(-0.5, 1.5, 23):
            assert model.uncapped_power_w_scalar(float(util)) == float(
                model.uncapped_power_w(float(util))
            )


# ---------------------------------------------------------------------------
# 2. Randomized incremental-state parity
# ---------------------------------------------------------------------------


class ReferencePool:
    """An in-test model of the cluster's per-GPU state.

    It is updated from the operations the test performs, never from the
    cluster's own state, so a cluster whose rows or counters drift from
    what those operations imply fails.
    """

    def __init__(self, n_nodes: int, gpus_per_node: int) -> None:
        self.n_nodes, self.gpus_per_node = n_nodes, gpus_per_node
        locations = [(n, i) for n in range(n_nodes) for i in range(gpus_per_node)]
        self.job = dict.fromkeys(locations)
        self.utilization = dict.fromkeys(locations, 0.0)
        self.cap = dict.fromkeys(locations)
        self.drained: set[int] = set()

    @classmethod
    def from_snapshot(cls, cluster: Cluster) -> "ReferencePool":
        """The per-GPU table that ``cluster.snapshot_state()`` describes."""
        state = cluster.snapshot_state()
        pool = cls(state["n_nodes"], state["gpus_per_node"])
        pool.drained.update(state["drained"])
        for entry in state["allocations"]:
            for location in entry["locations"]:
                pool.hold(tuple(location), entry["job_id"], entry["utilization"], entry["power_limit_w"])
        return pool

    def hold(self, location, job_id, utilization, cap) -> None:
        self.job[location], self.utilization[location], self.cap[location] = job_id, utilization, cap

    def free_indices(self, node_id: int) -> list[int]:
        return [i for i in range(self.gpus_per_node) if self.job[(node_id, i)] is None]

    def drain(self, n_nodes: int) -> int:
        idle = [
            node_id
            for node_id in range(self.n_nodes)
            if node_id not in self.drained and len(self.free_indices(node_id)) == self.gpus_per_node
        ]
        self.drained.update(idle[:n_nodes])
        return len(idle[:n_nodes])

    def busy_utilizations(self) -> list[float]:
        """The busy GPUs' utilizations in node-major order."""
        return [
            self.utilization[location]
            for location in sorted(self.job)
            if self.job[location] is not None
        ]

    def assert_matches(self, cluster: Cluster) -> None:
        """The cluster's public snapshot describes exactly this pool."""
        observed = ReferencePool.from_snapshot(cluster)
        assert observed.drained == self.drained
        assert observed.job == self.job
        assert observed.utilization == self.utilization
        assert observed.cap == self.cap


def brute_force_it_power(cluster: Cluster, reference: ReferencePool) -> float:
    """The pre-refactor whole-cluster scan, kept verbatim, over the reference pool."""
    facility = cluster.facility
    idle_gpu_w = cluster.gpu_spec.idle_power_w
    power = 0.0
    busy_utils: list[float] = []
    busy_caps: list[float] = []
    for node_id in range(reference.n_nodes):
        if node_id in reference.drained:
            continue
        power += facility.node_idle_power_w
        occupied = False
        for index in range(reference.gpus_per_node):
            location = (node_id, index)
            if reference.job[location] is None:
                power += idle_gpu_w
            else:
                occupied = True
                busy_utils.append(reference.utilization[location])
                cap = reference.cap[location]
                busy_caps.append(cap if cap is not None else cluster.gpu_spec.tdp_w)
        if occupied:
            power += facility.node_active_overhead_w
    if busy_utils:
        power += float(
            np.sum(cluster.gpu_power_model.power_w(np.asarray(busy_utils), np.asarray(busy_caps)))
        )
    return power


def assert_state_parity(cluster: Cluster, reference: ReferencePool) -> None:
    """Counters and cached power must match brute-force recounts of the reference."""
    live = [n for n in range(reference.n_nodes) if n not in reference.drained]
    free = sum(len(reference.free_indices(node_id)) for node_id in live)
    busy = sum(1 for job_id in reference.job.values() if job_id is not None)
    occupied = sum(
        1
        for node_id in range(reference.n_nodes)
        if len(reference.free_indices(node_id)) < reference.gpus_per_node
    )
    assert cluster.n_free_gpus == free
    assert cluster.n_busy_gpus == busy
    assert cluster.n_occupied_nodes == occupied
    assert cluster.n_drained_nodes == len(reference.drained)
    expected = brute_force_it_power(cluster, reference)
    np.testing.assert_allclose(cluster.it_power_w(), expected, rtol=1e-9, atol=1e-6)
    np.testing.assert_allclose(cluster.recompute_it_power_w(), expected, rtol=1e-12, atol=1e-9)


def scan_placement(reference: ReferencePool, n_gpus: int, pack: bool) -> tuple:
    """The whole-cluster-scan placement rule, kept verbatim as the reference.

    Pack fills the fewest-free non-drained nodes first (a stable argsort, so
    ties go to the lowest node id); spread takes one GPU at a time from the
    node with the most free GPUs (``argmax`` returns the first maximum).  The
    occupancy is read from the reference pool, not the cluster's own state.
    """
    allocated = np.array(
        [
            [reference.job[(node_id, index)] is not None for index in range(reference.gpus_per_node)]
            for node_id in range(reference.n_nodes)
        ]
    )
    drained = np.array([node_id in reference.drained for node_id in range(reference.n_nodes)])
    free = np.where(drained, 0, (~allocated).sum(axis=1))
    locations: list[tuple[int, int]] = []
    if pack:
        candidates = np.flatnonzero(free > 0)
        order = candidates[np.argsort(free[candidates], kind="stable")]
        remaining = n_gpus
        for node_id in order:
            free_indices = np.flatnonzero(~allocated[node_id])
            take = free_indices if free_indices.size <= remaining else free_indices[:remaining]
            node_id = int(node_id)
            locations.extend((node_id, int(index)) for index in take)
            remaining -= take.size
            if remaining == 0:
                break
    else:
        cursors: dict[int, int] = {}
        free_rows: dict[int, np.ndarray] = {}
        for _ in range(n_gpus):
            node_id = int(np.argmax(free))
            row = free_rows.get(node_id)
            if row is None:
                row = np.flatnonzero(~allocated[node_id])
                free_rows[node_id] = row
            cursor = cursors.get(node_id, 0)
            locations.append((node_id, int(row[cursor])))
            cursors[node_id] = cursor + 1
            free[node_id] -= 1
    return tuple(locations)


@pytest.mark.parametrize("seed", [0, 7, 20220527])
def test_randomized_sequences_keep_state_exact(seed):
    """Random allocate/release/re-cap/drain/undrain sequences.

    After every step the O(1) IT power equals the vectorized recompute and
    the cluster's snapshot equals the in-test reference; every allocation
    lands on the GPUs the scan placement picks from the reference.
    """
    rng = np.random.default_rng(seed)
    facility = FacilityConfig(n_nodes=6, gpus_per_node=4)
    cluster = Cluster(facility, gpu_model="V100")
    reference = ReferencePool(facility.n_nodes, facility.gpus_per_node)
    live: dict[str, tuple] = {}  # job id -> the locations placed for it
    next_id = 0
    n_steps = 300
    for step in range(n_steps):
        op = rng.random()
        if op < 0.40 and cluster.n_free_gpus > 0:
            n_gpus = int(rng.integers(1, cluster.n_free_gpus + 1))
            job_id = f"job-{next_id}"
            next_id += 1
            cap = None if rng.random() < 0.5 else float(rng.uniform(80.0, 300.0))
            utilization = float(rng.uniform(0.05, 1.0))
            pack = bool(rng.random() < 0.5)
            expected = scan_placement(reference, n_gpus, pack)
            allocation = cluster.allocate(
                job_id, n_gpus, utilization=utilization, power_limit_w=cap, pack=pack
            )
            assert allocation.gpu_locations == expected
            for location in expected:
                reference.hold(location, job_id, utilization, cap)
            live[job_id] = expected
        elif op < 0.60 and live:
            job_id = list(live)[int(rng.integers(len(live)))]
            locations = live.pop(job_id)
            assert cluster.release(job_id).gpu_locations == locations
            for location in locations:
                reference.hold(location, None, 0.0, None)
        elif op < 0.72 and live:
            job_id = list(live)[int(rng.integers(len(live)))]
            cap = None if rng.random() < 0.3 else float(rng.uniform(80.0, 300.0))
            cluster.set_power_limit(job_id, cap)
            for location in live[job_id]:
                reference.cap[location] = cap
        elif op < 0.82:
            n_nodes = int(rng.integers(0, 4))
            assert cluster.drain_nodes(n_nodes) == reference.drain(n_nodes)
        elif op < 0.86:
            cluster.undrain_all()
            reference.drained.clear()
        np.testing.assert_allclose(
            cluster.recompute_it_power_w(), cluster.it_power_w(), rtol=1e-9, atol=1e-6
        )
        reference.assert_matches(cluster)
        np.testing.assert_array_equal(cluster.busy_utilizations(), reference.busy_utilizations())
        if step % 10 == 0 or step > n_steps - 20:
            assert_state_parity(cluster, reference)
    # Drain the cluster empty: the busy-power accumulator must return to 0.
    for job_id, locations in live.items():
        cluster.release(job_id)
        for location in locations:
            reference.hold(location, None, 0.0, None)
    cluster.undrain_all()
    reference.drained.clear()
    assert cluster.n_busy_gpus == 0
    assert cluster.n_free_gpus == cluster.total_gpus
    assert cluster.it_power_w() == pytest.approx(
        brute_force_it_power(cluster, reference), rel=0, abs=0
    )
    assert_state_parity(cluster, reference)


# ---------------------------------------------------------------------------
# 3. Seeded end-to-end parity with the pre-refactor implementation
# ---------------------------------------------------------------------------

SEED = 1234
FACILITY = FacilityConfig(n_nodes=8, gpus_per_node=4)
HORIZON_H = 14 * 24.0

#: sha256 over the repr of every job record's (id, start, finish, energy, cap,
#: completed, missed-deadline) tuple, captured from the pre-refactor scan-based
#: implementation on this exact workload.  Matching hashes mean bit-identical
#: job-level outcomes.  (The hash is sensitive to libm's pow in the last ulp,
#: so an exotic platform could flip it; the tolerance assertions below are the
#: platform-independent backstop.)
PRE_REFACTOR_RECORD_HASHES = {
    "backfill": "21c6114658ebc0f853785065943f24df30bec46c86a23caeec43501a9e2d3920",
    "fifo": "52f30937aa2ca0af0d198a058a9e0335aff15de1debab2472ca8bdc6c1541dc5",
    "energy-aware": "258f7f7bd6e3f7a889c8536acb4eaedf2526020fec0d3232d61437791ce9299f",
    "carbon-aware": "9d1be27979da14dac3209677b3d8f1677d47ae2503b377e94584a659879666e8",
    "deadline-aware": "4f5bf8d9845cb2627e3c73e965ea4138c9d17fc18a1093f32ea345dba174f202",
}

#: Headline metrics captured from the pre-refactor implementation (full float
#: precision).  ``delivered_gpu_hours``/``mean_wait_h`` derive purely from job
#: records and must match exactly; the energy/cost totals integrate the power
#: series and are allowed one part in 1e12 for the delta-maintained summation.
PRE_REFACTOR_METRICS = {
    "backfill": (1812.7819959080746, 1960.7028294482975, 3744.4164705279586, 3.513885431581352),
    "fifo": (1809.5093644455555, 1955.1587878741482, 3744.4164705279586, 9.344292370784999),
    "energy-aware": (1740.3556805600206, 1882.7477169388428, 3744.4164705279586, 3.693189731961997),
    "carbon-aware": (1781.7806673142989, 1933.6299859039398, 3744.4164705279586, 3.184461630729425),
    "deadline-aware": (1828.7097834634963, 1982.8102422810566, 3744.4164705279586, 2.9088644563804165),
}

#: The explicit pipeline spelling of each of the five named policies, as the
#: pre-refactor schedulers were default-constructed (energy-aware: a 0.75 cap
#: plus the budget gate).
SCHEDULERS = {
    "backfill": "backfill",
    "fifo": "fifo",
    "energy-aware": "backfill+cap(fraction=0.75)+budget",
    "carbon-aware": "backfill+carbon(cap=0.7)",
    "deadline-aware": "edf+backfill+slack(margin=2.0)",
}


@pytest.fixture(scope="module")
def parity_world():
    calendar = SimulationCalendar(start_year=2020, n_months=1)
    weather = WeatherModel(seed=SEED).hourly_temperature_c(calendar)
    grid = IsoNeLikeGrid(calendar, seed=SEED)
    generator = SuperCloudTraceGenerator(
        SuperCloudTraceConfig(facility=FACILITY),
        demand_model=DeadlineDemandModel(seed=SEED),
        seed=SEED,
    )
    jobs = generator.generate_jobs(n_jobs=200, horizon_h=HORIZON_H - 48.0)
    return weather, grid, jobs


class PowerParityObserver(SimulatorObserver):
    """Checks the O(1) IT power against the full recompute at every hook.

    Runs at every job start and finish, scheduling round and tick, and
    counts its checks so a test can assert that it ran.
    """

    transient = True

    def __init__(self) -> None:
        self.checks = 0

    def _check(self, simulator) -> None:
        cluster = simulator.cluster
        np.testing.assert_allclose(
            cluster.it_power_w(), cluster.recompute_it_power_w(), rtol=1e-9, atol=1e-6
        )
        self.checks += 1

    def on_job_start(self, simulator, job, now_h):
        self._check(simulator)

    def on_job_finish(self, simulator, job, now_h, *, completed):
        self._check(simulator)

    def on_round(self, simulator, now_h, context, decisions):
        self._check(simulator)

    def on_tick(self, simulator, now_h, it_power_w):
        self._check(simulator)


@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
def test_end_to_end_matches_pre_refactor(policy, parity_world):
    weather, grid, jobs = parity_world
    parity = PowerParityObserver()
    simulator = ClusterSimulator(
        Cluster(FACILITY),
        build_pipeline(SCHEDULERS[policy]),
        SimulationConfig(horizon_h=HORIZON_H),
        weather_hourly_c=weather,
        cooling=CoolingModel(),
        grid=grid,
        observers=[parity],
    )
    result = simulator.run([job.clone_pending() for job in jobs])
    assert parity.checks > len(result.tick_times_h)
    it_kwh, facility_kwh, delivered, mean_wait = PRE_REFACTOR_METRICS[policy]
    assert result.delivered_gpu_hours == delivered
    assert result.mean_wait_h == mean_wait
    np.testing.assert_allclose(result.it_energy_kwh, it_kwh, rtol=1e-12)
    np.testing.assert_allclose(result.facility_energy_kwh, facility_kwh, rtol=1e-12)
    assert result.digest() == PRE_REFACTOR_RECORD_HASHES[policy]


def test_power_series_matches_recompute_at_every_tick(parity_world):
    """The recorded tick series equals per-tick recomputes of a shadow run."""
    weather, grid, jobs = parity_world
    fast = ClusterSimulator(
        Cluster(FACILITY),
        build_pipeline("backfill"),
        SimulationConfig(horizon_h=HORIZON_H),
        weather_hourly_c=weather,
        cooling=CoolingModel(),
        grid=grid,
    )
    result = fast.run([job.clone_pending() for job in jobs])
    # PUE series must be exactly the vectorized curve at the tick hours.
    pue_hourly = CoolingModel().pue_series(weather)
    indices = np.minimum(np.maximum(result.tick_times_h, 0.0), HORIZON_H).astype(int)
    np.testing.assert_array_equal(result.pue, pue_hourly[indices])
    # And the final cluster state power must agree with the brute-force scan
    # of the per-GPU table its snapshot describes.
    table = ReferencePool.from_snapshot(fast.cluster)
    np.testing.assert_allclose(
        fast.cluster.it_power_w(), brute_force_it_power(fast.cluster, table), rtol=1e-9
    )
