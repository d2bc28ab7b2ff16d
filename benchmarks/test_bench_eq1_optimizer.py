"""EQ1 — the datacenter-level optimization of Eq. 1.

Paper framing: minimize facility energy E(q_d, q_s, p, c, ε) over the supply,
scheduling and control levers subject to an activity floor A ≥ α.  The
benchmark searches a small operating grid (policies x power caps x supply
fractions) on a fixed one-week job trace and reports the frontier: the best
feasible point should beat the status-quo (uncapped backfill, full supply)
without violating the activity floor — and points that do violate it
illustrate the paper's "perverse effects" warning.
"""

from benchmarks._report import print_header, print_rows
from repro.climate.weather import WeatherModel
from repro.cluster.simulator import SimulationConfig
from repro.config import FacilityConfig
from repro.core.levers import OperatingPoint, Substrates
from repro.core.objective import ActivityConstraint, ActivityKind, EnergyObjective, ObjectiveKind
from repro.core.optimizer import DatacenterOptimizer
from repro.experiments import ScenarioSpec
from repro.grid.iso_ne import IsoNeLikeGrid
from repro.timeutils import SimulationCalendar
from repro.workloads.supercloud import SuperCloudTraceConfig, SuperCloudTraceGenerator

FACILITY = FacilityConfig(n_nodes=24, gpus_per_node=2)
SPEC = ScenarioSpec(facility=FACILITY)
HORIZON_H = 7 * 24.0

POINTS = [
    OperatingPoint(policy_name="backfill"),
    OperatingPoint(policy_name="backfill", power_cap_fraction=0.75),
    OperatingPoint(policy_name="energy-aware", power_cap_fraction=0.75),
    OperatingPoint(policy_name="energy-aware", power_cap_fraction=0.6),
    OperatingPoint(policy_name="carbon-aware", power_cap_fraction=0.75),
    OperatingPoint(policy_name="energy-aware", power_cap_fraction=0.75, supply_fraction=0.75),
]


def _build_problem():
    calendar = SimulationCalendar(2020, 2)
    weather = WeatherModel(seed=0).hourly_temperature_c(calendar)
    grid = IsoNeLikeGrid(calendar, seed=0)
    generator = SuperCloudTraceGenerator(SuperCloudTraceConfig(facility=FACILITY), seed=5)
    jobs = generator.generate_jobs(n_jobs=180, horizon_h=5 * 24.0)
    substrates = Substrates(weather, grid)

    baseline_optimizer = DatacenterOptimizer(
        SPEC,
        substrates,
        EnergyObjective(ObjectiveKind.FACILITY_ENERGY_KWH),
        ActivityConstraint(ActivityKind.DELIVERED_GPU_HOURS, alpha=0.0),
        simulation_config=SimulationConfig(horizon_h=HORIZON_H),
    )
    baseline = baseline_optimizer.evaluate_point(OperatingPoint(policy_name="backfill"), jobs)
    alpha = 0.9 * baseline.result.delivered_gpu_hours
    optimizer = DatacenterOptimizer(
        SPEC,
        substrates,
        EnergyObjective(ObjectiveKind.FACILITY_ENERGY_KWH),
        ActivityConstraint(ActivityKind.DELIVERED_GPU_HOURS, alpha=alpha),
        simulation_config=SimulationConfig(horizon_h=HORIZON_H),
    )
    return optimizer, jobs, alpha


def test_bench_eq1_operating_point_search(benchmark):
    optimizer, jobs, alpha = _build_problem()
    outcome = benchmark.pedantic(
        lambda: optimizer.optimize(jobs, POINTS), rounds=1, iterations=1, warmup_rounds=0
    )

    print_header("Eq. 1 — operating-point search (minimise facility kWh s.t. delivered GPU-h >= alpha)")
    print(f"activity floor alpha = {alpha:.0f} delivered GPU-hours (90% of status quo)")
    print_rows(outcome.frontier_records())
    assert outcome.best is not None
    print(f"best feasible point : {outcome.best.point.label()}")
    print(f"objective savings vs status quo : {100 * outcome.savings_vs_baseline():.1f}%")

    # The search must find a feasible point at least as good as the baseline,
    # and power caps should be part of the winning configuration.
    assert outcome.savings_vs_baseline() >= 0.0
    assert outcome.best.evaluation.feasible
    assert any(
        e.point.power_cap_fraction is not None and e.evaluation.feasible for e in outcome.evaluated
    )
