#!/usr/bin/env python
"""Cluster-level policy comparison: run the same job trace under five schedulers.

Builds a 48-node cluster, generates a one-week SuperCloud-like job trace, and
runs it under FIFO, backfill, energy-aware, carbon-aware and deadline-aware
policies with identical weather and grid conditions — the Eq. 1 levers ``p``
and ``c`` in action.  Then runs the Eq. 1 grid search to pick the best
operating point subject to a 90% activity floor.

Run with::

    python examples/scheduler_comparison.py
"""

from __future__ import annotations

from repro.climate.weather import WeatherModel
from repro.cluster.cooling import CoolingModel
from repro.cluster.resources import Cluster
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.config import FacilityConfig
from repro.core.framework import GreenDatacenterModel
from repro.core.levers import OperatingPoint, make_scheduler
from repro.grid.iso_ne import IsoNeLikeGrid
from repro.timeutils import SimulationCalendar
from repro.workloads.supercloud import SuperCloudTraceConfig, SuperCloudTraceGenerator

FACILITY = FacilityConfig(n_nodes=48, gpus_per_node=2)


def main() -> None:
    calendar = SimulationCalendar(2020, 2)
    weather = WeatherModel(seed=0).hourly_temperature_c(calendar)
    grid = IsoNeLikeGrid(calendar, seed=0)
    generator = SuperCloudTraceGenerator(SuperCloudTraceConfig(facility=FACILITY), seed=21)
    jobs = generator.generate_jobs(n_jobs=400, horizon_h=5 * 24.0, deferrable_fraction=0.5)

    print("=" * 90)
    print("One-week trace (400 jobs) on a 96-GPU cluster under five scheduling policies")
    print("=" * 90)
    header = (f"{'policy':>15} {'energy kWh':>11} {'CO2e kg':>9} {'cost $':>8} "
              f"{'kWh/GPU-h':>10} {'done':>5} {'wait h':>7} {'p95 wait':>9}")
    print(header)
    for policy, cap in (("fifo", None), ("backfill", None), ("energy-aware", 0.75),
                        ("carbon-aware", None), ("deadline-aware", None)):
        simulator = ClusterSimulator(
            Cluster(FACILITY), make_scheduler(policy, cap), SimulationConfig(horizon_h=7 * 24.0),
            weather_hourly_c=weather, cooling=CoolingModel(), grid=grid,
        )
        result = simulator.run([job.clone_pending() for job in jobs])
        print(f"{result.scheduler_name:>15} {result.facility_energy_kwh:11.0f} "
              f"{result.total_emissions_kg:9.1f} {result.total_cost_usd:8.1f} "
              f"{result.energy_per_gpu_hour_kwh:10.3f} {result.completed_jobs:5d} "
              f"{result.mean_wait_h:7.2f} {result.p95_wait_h:9.2f}")

    print()
    print("Eq. 1 search: minimise facility energy s.t. delivered GPU-hours >= 90% of status quo")
    model = GreenDatacenterModel()
    model.facility = FACILITY
    outcome = model.optimize_operations(
        jobs,
        horizon_h=7 * 24.0,
        activity_floor_fraction=0.9,
        points=[
            OperatingPoint(policy_name="backfill"),
            OperatingPoint(policy_name="energy-aware", power_cap_fraction=0.75),
            OperatingPoint(policy_name="energy-aware", power_cap_fraction=0.6),
            OperatingPoint(policy_name="energy-aware", power_cap_fraction=0.75, supply_fraction=0.8),
            OperatingPoint(policy_name="carbon-aware", power_cap_fraction=0.75),
        ],
    )
    for record in outcome.frontier_records():
        marker = " <= best" if outcome.best is not None and record["operating_point"] == outcome.best.point.label() else ""
        print(f"  {record['operating_point']:>40}: objective {record['objective']:9.0f} kWh, "
              f"activity {record['activity']:8.0f} GPU-h, feasible={record['feasible']}{marker}")
    print(f"savings vs status quo: {100 * outcome.savings_vs_baseline():.1f}%")


if __name__ == "__main__":
    main()
