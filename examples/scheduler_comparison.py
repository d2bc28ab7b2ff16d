#!/usr/bin/env python
"""Cluster-level policy comparison: run the same job trace under five schedulers.

Builds a 48-node cluster, generates a one-week SuperCloud-like job trace, and
runs it under FIFO, backfill, energy-aware, carbon-aware and deadline-aware
policies with identical weather and grid conditions — the Eq. 1 levers ``p``
and ``c`` in action.  Then runs the Eq. 1 grid search on the same cluster to
pick the best operating point subject to a 90% activity floor.

Both halves share one :class:`~repro.experiments.ExperimentSession`: the
policy runs build their simulators with ``build_simulator``, the factory the
session's Eq. 1 search uses too.

Run with::

    python examples/scheduler_comparison.py
"""

from __future__ import annotations

from repro.cluster.simulator import SimulationConfig
from repro.config import FacilityConfig
from repro.core.levers import OperatingPoint, build_simulator
from repro.experiments import ExperimentSession, ScenarioSpec
from repro.workloads.supercloud import SuperCloudTraceGenerator

FACILITY = FacilityConfig(n_nodes=48, gpus_per_node=2)
SPEC = ScenarioSpec(name="scheduler-comparison", n_months=2, facility=FACILITY)
HORIZON_H = 7 * 24.0


def main() -> None:
    session = ExperimentSession(SPEC)
    generator = SuperCloudTraceGenerator(SPEC.trace_config(), seed=21)
    jobs = generator.generate_jobs(n_jobs=400, horizon_h=5 * 24.0, deferrable_fraction=0.5)

    print("=" * 90)
    print(f"One-week trace ({len(jobs)} jobs) on a {FACILITY.n_nodes}-node, "
          f"{FACILITY.total_gpus}-GPU cluster under five scheduling policies")
    print("=" * 90)
    header = (f"{'policy':>15} {'energy kWh':>11} {'CO2e kg':>9} {'cost $':>8} "
              f"{'kWh/GPU-h':>10} {'done':>5} {'wait h':>7} {'p95 wait':>9}")
    print(header)
    for policy, cap in (("fifo", None), ("backfill", None), ("energy-aware", 0.75),
                        ("carbon-aware", None), ("deadline-aware", None)):
        simulator = build_simulator(
            SPEC, session.scenario(), policy, SimulationConfig(horizon_h=HORIZON_H),
            power_cap_fraction=cap,
        )
        result = simulator.run([job.clone_pending() for job in jobs])
        print(f"{result.scheduler_name:>15} {result.facility_energy_kwh:11.0f} "
              f"{result.total_emissions_kg:9.1f} {result.total_cost_usd:8.1f} "
              f"{result.energy_per_gpu_hour_kwh:10.3f} {result.completed_jobs:5d} "
              f"{result.mean_wait_h:7.2f} {result.p95_wait_h:9.2f}")

    print()
    print(f"Eq. 1 search on the same {session.spec.facility.n_nodes}-node cluster: "
          "minimise facility energy s.t. delivered GPU-hours >= 90% of status quo")
    outcome = session.optimize_operations(
        jobs,
        horizon_h=HORIZON_H,
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
