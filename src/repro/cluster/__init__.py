"""Cluster substrate: resources, discrete-event simulation and cooling.

This package models the datacenter/HPC system whose energy the paper's
framework (Eq. 1) optimizes:

* :mod:`~repro.cluster.resources` — the cluster's GPU pool with
  allocation/release book-keeping.
* :mod:`~repro.cluster.events` — a small discrete-event engine (heap-based).
* :mod:`~repro.cluster.cooling` — the cooling/PUE model that couples facility
  overhead to outdoor temperature (Fig. 4) and the optimizable cooling
  controller used for the DeepMind-style cooling claim.
* :mod:`~repro.cluster.simulator` — the cluster simulator that executes a job
  trace under a scheduling policy and produces hourly power series, job
  statistics, and energy/cost/carbon totals.  Its
  :class:`~repro.cluster.simulator.SimulationResult` is the one per-site
  power account: fleet totals and reports sum over it.

Incremental state model
-----------------------
The cluster core is built around persistent, incrementally-maintained state
rather than recomputation.  Each GPU's job id (from which "allocated" is
derived) lives in a plain list row on
:class:`~repro.cluster.resources.Cluster`, and each job's utilization, power
cap and per-GPU power live once, on its
:class:`~repro.cluster.resources.Allocation`.  Per-node free counters and
cluster-wide occupancy totals are updated only for the nodes an
``allocate``/``release``/``drain`` actually touches, and the cluster's IT
power is delta-maintained so the simulator reads it in O(1) at every tick and
scheduling round.  The rows, records and counters are the only
representation of the pool's state and change only through those methods;
their public read is ``Cluster.snapshot_state``.
``tests/test_cluster_state_parity.py`` pins the whole model — placements,
counters, power, and end-to-end ``SimulationResult`` outputs — against one
reference, the pre-refactor scan-based pool in ``tests/scan_cluster.py``, and
against record hashes of the pre-refactor implementation.  The
``supercloud-large`` scenario (256 nodes x 8 A100s) and
``benchmarks/test_bench_simulator_scale.py`` exercise the core at scale; the
benchmark times the same scan pool as the baseline of its speedup gate.
"""

from .resources import Cluster, Allocation
from .events import Event, EventType, EventQueue
from .cooling import CoolingConfig, CoolingModel, FixedOverheadCooling, OptimizedCoolingController
from .simulator import (
    ClusterSimulator,
    JobRecord,
    SimulationConfig,
    SimulationResult,
)

__all__ = [
    "Cluster",
    "Allocation",
    "Event",
    "EventType",
    "EventQueue",
    "CoolingConfig",
    "CoolingModel",
    "FixedOverheadCooling",
    "OptimizedCoolingController",
    "ClusterSimulator",
    "SimulationConfig",
    "SimulationResult",
    "JobRecord",
]
