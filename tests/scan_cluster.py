"""The scan-cluster reference: the pre-refactor GPU pool that scans everything.

:class:`ScanCluster` is the seed implementation of the cluster, from before
the incremental state model of :mod:`repro.cluster.resources`: every query
walks every node and GPU, every allocate and release refreshes every node's
state, and IT power is summed GPU by GPU.  It keeps no counters and no
running power total, and it never reads :class:`~repro.cluster.resources.
Cluster`'s rows, counters or stored power, so it is the one reference the
incremental pool is checked against:

* ``tests/test_cluster_state_parity.py`` drives both pools through the same
  random allocate/release/re-cap/drain/undrain steps, and runs whole
  simulations on both;
* its ``PowerParityObserver`` and ``tests/test_cluster_resources.py`` rebuild
  the pool a cluster's snapshot describes (:meth:`ScanCluster.from_snapshot`)
  and compare IT power;
* ``benchmarks/test_bench_simulator_scale.py`` times it as the baseline of
  the >= 5x speedup gate.

It has every method :class:`~repro.cluster.simulator.ClusterSimulator` and
the scheduling stages call on a cluster, so it stands in for ``Cluster`` in
a simulation.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.cluster.resources import Allocation, Cluster
from repro.config import FacilityConfig
from repro.errors import ResourceError
from repro.telemetry.gpu_power import GpuPowerModel, get_gpu_spec


@dataclass
class _Gpu:
    node_id: int
    index: int
    allocated_job_id: Optional[str] = None
    power_limit_w: Optional[float] = None
    utilization: float = 0.0

    @property
    def is_free(self) -> bool:
        return self.allocated_job_id is None


class _NodeState(enum.Enum):
    IDLE = "idle"
    ACTIVE = "active"
    DRAINED = "drained"


@dataclass
class _Node:
    node_id: int
    gpus: list

    state: "_NodeState" = _NodeState.IDLE

    @property
    def free_gpus(self) -> list:
        if self.state is _NodeState.DRAINED:
            return []
        return [g for g in self.gpus if g.is_free]

    @property
    def n_free_gpus(self) -> int:
        return len(self.free_gpus)

    @property
    def is_occupied(self) -> bool:
        return any(not g.is_free for g in self.gpus)

    def refresh_state(self) -> None:
        if self.state is _NodeState.DRAINED:
            return
        self.state = _NodeState.ACTIVE if self.is_occupied else _NodeState.IDLE


class ScanCluster:
    """The seed implementation's cluster: whole-cluster scans on every query."""

    def __init__(self, facility: FacilityConfig, gpu_model: str = "V100") -> None:
        self.facility = facility
        self.gpu_spec = get_gpu_spec(gpu_model)
        self.gpu_power_model = GpuPowerModel(self.gpu_spec)
        self.nodes = [
            _Node(
                node_id=node_id,
                gpus=[_Gpu(node_id=node_id, index=i) for i in range(facility.gpus_per_node)],
            )
            for node_id in range(facility.n_nodes)
        ]
        self._allocations = {}

    @classmethod
    def from_snapshot(cls, cluster: Cluster) -> "ScanCluster":
        """The pool that ``cluster.snapshot_state()`` describes, on the cluster's facility.

        Each record's per-GPU power is re-derived from its utilization and
        cap; the snapshot's accumulated ``busy_power_w`` is not read.
        """
        state = cluster.snapshot_state()
        pool = cls(cluster.facility, state["gpu_model"])
        for node_id in state["drained"]:
            pool.nodes[node_id].state = _NodeState.DRAINED
        for entry in state["allocations"]:
            job_id, utilization, cap = entry["job_id"], entry["utilization"], entry["power_limit_w"]
            locations = tuple(tuple(location) for location in entry["locations"])
            for node_id, index in locations:
                gpu = pool.nodes[node_id].gpus[index]
                gpu.allocated_job_id, gpu.utilization, gpu.power_limit_w = job_id, utilization, cap
            power = pool.gpu_power_model.power_w_scalar(utilization, cap)
            pool._allocations[job_id] = Allocation(job_id, locations, utilization, cap, power)
        for node in pool.nodes:
            node.refresh_state()
        return pool

    @property
    def n_free_gpus(self) -> int:
        return sum(node.n_free_gpus for node in self.nodes)

    @property
    def n_busy_gpus(self) -> int:
        return sum(not gpu.is_free for gpu in self.iter_gpus())

    @property
    def n_occupied_nodes(self) -> int:
        return sum(node.is_occupied for node in self.nodes)

    @property
    def n_drained_nodes(self) -> int:
        return sum(node.state is _NodeState.DRAINED for node in self.nodes)

    def can_fit(self, n_gpus: int) -> bool:
        if n_gpus <= 0:
            raise ResourceError(f"n_gpus must be positive, got {n_gpus!r}")
        return self.n_free_gpus >= n_gpus

    def iter_gpus(self):
        return itertools.chain.from_iterable(node.gpus for node in self.nodes)

    def table(self) -> tuple[list[tuple], set[int]]:
        """Each GPU's ``(job, utilization, cap)``, node-major, and the drained node ids."""
        rows = [
            (gpu.allocated_job_id, gpu.utilization, gpu.power_limit_w) for gpu in self.iter_gpus()
        ]
        drained = {node.node_id for node in self.nodes if node.state is _NodeState.DRAINED}
        return rows, drained

    def allocate(self, job_id, n_gpus, *, utilization=1.0, power_limit_w=None, pack=True):
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

    def set_power_limit(self, job_id: str, power_limit_w: Optional[float]) -> Allocation:
        """Re-cap every GPU ``job_id`` holds, returning the record it replaced."""
        allocation = self._allocations.get(job_id)
        if allocation is None:
            raise ResourceError(f"job {job_id!r} holds no allocation")
        cap = None if power_limit_w is None else float(power_limit_w)
        for gpu in self.iter_gpus():
            if gpu.allocated_job_id == job_id:
                gpu.power_limit_w = cap
        power = self.gpu_power_model.power_w_scalar(allocation.utilization, cap)
        self._allocations[job_id] = replace(allocation, power_limit_w=cap, per_gpu_power_w=power)
        return allocation

    def drain_nodes(self, n_nodes: int) -> int:
        """Drain up to ``n_nodes`` idle nodes, lowest id first; returns how many."""
        if n_nodes < 0:
            raise ResourceError(f"n_nodes must be non-negative, got {n_nodes!r}")
        idle = [node for node in self.nodes if node.state is _NodeState.IDLE]
        for node in idle[:n_nodes]:
            node.state = _NodeState.DRAINED
        return len(idle[:n_nodes])

    def undrain_all(self) -> None:
        for node in self.nodes:
            if node.state is _NodeState.DRAINED:
                node.state = _NodeState.IDLE
                node.refresh_state()

    def it_power_w(self) -> float:
        power = 0.0
        busy_utils, busy_caps = [], []
        for node in self.nodes:
            if node.state is _NodeState.DRAINED:
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
