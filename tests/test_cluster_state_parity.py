"""State-parity tests for the incremental array-backed cluster core.

Four layers of evidence that the delta-maintained state model is exact, all
against one reference pool, :class:`~scan_cluster.ScanCluster`
(``tests/scan_cluster.py``): the pre-refactor cluster, which rescans every
GPU on every query and keeps no counters or running power total.

1. **Scalar model parity** — the scalar fast paths of
   :class:`~repro.telemetry.gpu_power.GpuPowerModel` are bit-equal to the
   array API they mirror.
2. **Randomized state parity** — random allocate/release/drain/undrain/re-cap
   sequences drive the cluster and the scan reference through the same
   steps: both return equal records from every step (so every allocation
   lands on the GPUs the scan placement picks), and after every step they
   hold the same per-GPU table and counters, and the O(1) IT power equals
   the scan's to float tolerance.
3. **Seeded end-to-end parity** — a pinned SuperCloud-like workload produces
   *bit-identical* job records (hash-pinned against the pre-refactor
   implementation) under all five scheduling policies, with the O(1) IT
   power agreeing with the scan reference rebuilt from the cluster's
   snapshot at every job start, finish, scheduling round and tick
   (:class:`PowerParityObserver`).
4. **Random-case simulator parity** — hypothesis draws small worlds and
   composed policies and runs each simulation once on the cluster and once
   on the scan reference; the job records and the IT power series agree.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from scan_cluster import ScanCluster


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


def assert_same_state(cluster: Cluster, scan: ScanCluster) -> None:
    """Same per-GPU table and counters as the scan reference, and its IT power."""
    assert ScanCluster.from_snapshot(cluster).table() == scan.table()
    assert cluster.n_free_gpus == scan.n_free_gpus
    assert cluster.n_busy_gpus == scan.n_busy_gpus
    assert cluster.n_occupied_nodes == scan.n_occupied_nodes
    assert cluster.n_drained_nodes == scan.n_drained_nodes
    np.testing.assert_allclose(cluster.it_power_w(), scan.it_power_w(), rtol=1e-9)


@pytest.mark.parametrize("seed", [0, 7, 20220527])
def test_randomized_sequences_keep_state_exact(seed):
    """Random allocate/release/re-cap/drain/undrain sequences.

    The cluster and the scan reference take the same steps and return equal
    records from each; after every step they hold the same per-GPU table,
    counters and IT power.
    """
    rng = np.random.default_rng(seed)
    facility = FacilityConfig(n_nodes=6, gpus_per_node=4)
    cluster = Cluster(facility, gpu_model="V100")
    scan = ScanCluster(facility, gpu_model="V100")
    live: list[str] = []
    next_id = 0
    for _ in range(300):
        op = rng.random()
        if op < 0.40 and cluster.n_free_gpus > 0:
            n_gpus = int(rng.integers(1, cluster.n_free_gpus + 1))
            job_id = f"job-{next_id}"
            next_id += 1
            request = dict(
                power_limit_w=None if rng.random() < 0.5 else float(rng.uniform(80.0, 300.0)),
                utilization=float(rng.uniform(0.05, 1.0)),
                pack=bool(rng.random() < 0.5),
            )
            expected = scan.allocate(job_id, n_gpus, **request)
            assert cluster.allocate(job_id, n_gpus, **request) == expected
            live.append(job_id)
        elif op < 0.60 and live:
            job_id = live.pop(int(rng.integers(len(live))))
            assert cluster.release(job_id) == scan.release(job_id)
        elif op < 0.72 and live:
            job_id = live[int(rng.integers(len(live)))]
            cap = None if rng.random() < 0.3 else float(rng.uniform(80.0, 300.0))
            assert cluster.set_power_limit(job_id, cap) == scan.set_power_limit(job_id, cap)
        elif op < 0.82:
            n_nodes = int(rng.integers(0, 4))
            assert cluster.drain_nodes(n_nodes) == scan.drain_nodes(n_nodes)
        elif op < 0.86:
            cluster.undrain_all()
            scan.undrain_all()
        assert_same_state(cluster, scan)
    # Drain the cluster empty: the busy-power accumulator must return to 0.
    for job_id in live:
        cluster.release(job_id)
        scan.release(job_id)
    cluster.undrain_all()
    scan.undrain_all()
    assert cluster.n_busy_gpus == 0
    assert cluster.n_free_gpus == cluster.total_gpus
    assert cluster.it_power_w() == pytest.approx(scan.it_power_w(), rel=0, abs=0)
    assert_same_state(cluster, scan)


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
    """Checks the O(1) IT power against the scan reference at every hook.

    The reference is rebuilt from ``cluster.snapshot_state()`` at every job
    start and finish, scheduling round and tick.  The observer counts its
    checks so a test can assert that it ran.
    """

    transient = True

    def __init__(self) -> None:
        self.checks = 0

    def _check(self, simulator) -> None:
        cluster = simulator.cluster
        np.testing.assert_allclose(
            cluster.it_power_w(),
            ScanCluster.from_snapshot(cluster).it_power_w(),
            rtol=1e-9,
            atol=1e-6,
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
    """The PUE series is exact, and the final IT power equals the scan reference's."""
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
    # And the final cluster state power must agree with the scan reference
    # of the pool its snapshot describes.
    np.testing.assert_allclose(
        fast.cluster.it_power_w(), ScanCluster.from_snapshot(fast.cluster).it_power_w(), rtol=1e-9
    )


# ---------------------------------------------------------------------------
# 4. Random-case parity through the whole simulator
# ---------------------------------------------------------------------------

GATES = ("carbon", "budget", "price(ceiling=40)", "renewable", "slack")
POWER_STAGES = ("adaptive", "cap", "dirty-cap", "deadline-cap")


@functools.cache
def substrates(seed: int):
    """One month of weather and grid per seed, shared by every example."""
    calendar = SimulationCalendar(start_year=2020, n_months=1)
    weather = WeatherModel(seed=seed).hourly_temperature_c(calendar)
    return weather, IsoNeLikeGrid(calendar, seed=seed)


@st.composite
def random_cases(draw):
    """A small world, a drained-node count and a valid composed policy."""
    seed = draw(st.integers(0, 3))
    facility = FacilityConfig(
        n_nodes=draw(st.integers(2, 6)), gpus_per_node=draw(st.sampled_from([2, 4, 8]))
    )
    n_jobs, days = draw(st.integers(10, 120)), draw(st.integers(2, 9))
    n_drained = draw(st.integers(0, min(2, facility.n_nodes - 1)))
    # A budget between 30% of the cluster's peak IT power and all of it, for
    # the adaptive stage and the budget gate alike.
    peak_w = facility.n_nodes * (
        facility.node_idle_power_w + facility.node_active_overhead_w
    ) + facility.total_gpus * get_gpu_spec("V100").tdp_w
    budget_w = round(draw(st.floats(0.3, 1.0)) * peak_w, 1)
    placement = draw(st.sampled_from(["fifo", "backfill"]))
    pack = draw(st.sampled_from(["true", "false"]))
    tokens = [draw(st.sampled_from(["", "edf", "sjf"])), f"{placement}(pack={pack})"]
    tokens += draw(st.lists(st.sampled_from(GATES), max_size=2, unique=True))
    power = draw(st.lists(st.sampled_from(POWER_STAGES), max_size=2, unique=True))
    tokens += [f"adaptive(budget_w={budget_w})" if name == "adaptive" else name for name in power]
    return seed, facility, n_jobs, days, n_drained, budget_w, "+".join(filter(None, tokens))


class RecapCountingScan(ScanCluster):
    """The scan reference, counting the re-caps of running jobs."""

    recaps = 0

    def set_power_limit(self, job_id, power_limit_w):
        self.recaps += 1
        return super().set_power_limit(job_id, power_limit_w)


def test_random_worlds_match_scan_reference():
    """Random worlds and compositions: the cluster and the scan reference agree.

    Every example runs one simulation on ``Cluster`` and one on the scan
    reference; the job records must be bit-identical and the IT power series
    equal to float tolerance.  Some examples must re-cap running jobs, so
    the adaptive stage's re-cap path is among the cases checked.
    """
    recaps: list[int] = []

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(random_cases())
    def check(case):
        seed, facility, n_jobs, days, n_drained, budget_w, spec = case
        weather, grid = substrates(seed)
        jobs = SuperCloudTraceGenerator(
            SuperCloudTraceConfig(facility=facility),
            demand_model=DeadlineDemandModel(seed=seed),
            seed=seed,
        ).generate_jobs(n_jobs=n_jobs, horizon_h=days * 24.0)
        # A job larger than the undrained nodes would hold a FIFO queue forever.
        capacity = (facility.n_nodes - n_drained) * facility.gpus_per_node
        jobs = [job for job in jobs if job.n_gpus <= capacity]
        config = SimulationConfig(horizon_h=days * 24.0 + 48.0, facility_power_budget_w=budget_w)

        def simulate(cluster):
            cluster.drain_nodes(n_drained)
            simulator = ClusterSimulator(
                cluster,
                build_pipeline(spec),
                config,
                weather_hourly_c=weather,
                cooling=CoolingModel(),
                grid=grid,
            )
            return simulator.run([job.clone_pending() for job in jobs])

        scan_cluster = RecapCountingScan(facility)
        fast, scan = simulate(Cluster(facility)), simulate(scan_cluster)
        assert fast.digest() == scan.digest(), spec
        np.testing.assert_allclose(fast.it_power_w, scan.it_power_w, rtol=1e-9)
        recaps.append(scan_cluster.recaps)

    check()
    assert any(recaps), "no example re-capped a running job"
