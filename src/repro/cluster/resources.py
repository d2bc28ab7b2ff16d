"""Cluster resource model: the GPU allocation pool.

The resource model is deliberately coarse — the scheduling questions the
paper raises (how many GPUs to supply, which jobs to start when, what power
caps to enforce) only need GPU-count granularity with node boundaries, not a
full topology.  Nodes matter because an occupied node burns non-GPU overhead
power, so packing jobs onto fewer nodes is itself an energy lever.

Incremental state model
-----------------------
Every experiment bottoms out in :class:`~repro.cluster.simulator.
ClusterSimulator`, which queries and mutates this pool millions of times per
run, so the pool is built for O(1) hot-path queries instead of whole-cluster
rescans:

* **One per-GPU row, one record per job.**  A list-of-lists indexed
  ``[node][gpu]`` holds each GPU's job id (``None`` = free, so "allocated"
  is derived from it).  Everything else about a job's GPUs is uniform across
  them, so it is kept once, on the job's :class:`Allocation`: utilization,
  cap and the per-GPU power they give.  Plain lists, not NumPy arrays: the
  hot path writes one scalar per allocated GPU, and a list write costs a
  fraction of a NumPy scalar write.
* **Counters are maintained, not recomputed.**  Per-node free-GPU counts, the
  cluster-wide free/busy totals, and the occupied/drained node counts are
  updated by the few GPUs each ``allocate``/``release`` touches, so
  ``n_free_gpus`` / ``can_fit`` are O(1).
* **Placement reads free-count buckets.**  Bucket ``k`` is the sorted list
  of non-drained node ids with exactly ``k`` free GPUs.  Every state change
  (``allocate``, ``release``, ``drain_nodes`` and ``undrain_all``) moves
  only the touched nodes between buckets, with ``bisect``.  Pack placement
  walks buckets ``1..G`` in order, which is fewest-free-first with ties by
  node id, and reads each touched node's free GPU indices from its job-id
  row, so an allocation costs O(nodes touched) instead of a whole-cluster
  scan.
* **IT power is delta-maintained.**  Each allocation contributes
  ``n_gpus x per_gpu_power_w``; ``allocate``/``release``/``set_power_limit``
  adjust a running total so :meth:`Cluster.it_power_w` is an O(1) read.

The rows, records and counters are private to this module and change only
through the methods above, so they are the one representation of the pool's
state; :meth:`Cluster.snapshot_state` is the public read of it.  The tests
check this pool against one reference, ``ScanCluster`` in
``tests/scan_cluster.py``: the pre-refactor pool, which rescans every GPU on
every query, taken through the same steps or rebuilt from a snapshot.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..config import FacilityConfig
from ..errors import ResourceError
from ..telemetry.gpu_power import GpuPowerModel, GpuSpec, get_gpu_spec

__all__ = ["Allocation", "Cluster"]

@dataclass(frozen=True)
class Allocation:
    """A job's placement onto specific GPUs, and the power facts of those GPUs.

    A job's GPUs share one utilization and one cap (``None`` = uncapped, i.e.
    TDP), so the record holds each once, with the per-GPU power they give.
    :meth:`Cluster.set_power_limit` replaces the record.
    """

    job_id: str
    gpu_locations: tuple[tuple[int, int], ...]  # (node_id, gpu_index) pairs
    utilization: float
    power_limit_w: Optional[float]
    per_gpu_power_w: float

    @property
    def n_gpus(self) -> int:
        """Number of GPUs in the allocation."""
        return len(self.gpu_locations)


class Cluster:
    """The cluster's GPU pool with allocation and release book-keeping.

    Parameters
    ----------
    facility:
        Facility description (node count, GPUs per node, overhead powers).
    gpu_model:
        Name of the GPU model installed in every node.
    """

    def __init__(self, facility: FacilityConfig | None = None, gpu_model: str = "V100") -> None:
        self.facility = facility or FacilityConfig()
        self.gpu_spec: GpuSpec = get_gpu_spec(gpu_model)
        self.gpu_power_model = GpuPowerModel(self.gpu_spec)
        n_nodes = self.facility.n_nodes
        gpus_per_node = self.facility.gpus_per_node
        self._n_nodes = n_nodes
        self._gpus_per_node = gpus_per_node
        self._job_ids: list[list[Optional[str]]] = [[None] * gpus_per_node for _ in range(n_nodes)]
        # Incrementally maintained counters (plain ints: read per touched node).
        self._node_free: list[int] = [gpus_per_node] * n_nodes
        self._drained: list[bool] = [False] * n_nodes
        self._rebuild_buckets()
        self._free_gpus_nondrained = n_nodes * gpus_per_node
        self._busy_gpus = 0
        self._n_occupied = 0
        self._n_drained = 0
        # Delta-maintained IT power of the busy GPUs.
        self._busy_power_w = 0.0
        self._allocations: dict[str, Allocation] = {}

    # ------------------------------------------------------------------
    # Capacity queries (all O(1) reads of maintained counters)
    # ------------------------------------------------------------------
    @property
    def total_gpus(self) -> int:
        """Total GPUs in the cluster."""
        return self._n_nodes * self._gpus_per_node

    @property
    def n_free_gpus(self) -> int:
        """Currently free GPUs (on non-drained nodes)."""
        return self._free_gpus_nondrained

    @property
    def n_busy_gpus(self) -> int:
        """Currently allocated GPUs."""
        return self._busy_gpus

    @property
    def n_occupied_nodes(self) -> int:
        """Nodes with at least one allocated GPU."""
        return self._n_occupied

    @property
    def n_drained_nodes(self) -> int:
        """Nodes administratively removed from service."""
        return self._n_drained

    def can_fit(self, n_gpus: int) -> bool:
        """Whether ``n_gpus`` GPUs are currently free (across any nodes)."""
        if n_gpus <= 0:
            raise ResourceError(f"n_gpus must be positive, got {n_gpus!r}")
        return self._free_gpus_nondrained >= n_gpus

    # ------------------------------------------------------------------
    # Allocation / release
    # ------------------------------------------------------------------
    def allocate(
        self,
        job_id: str,
        n_gpus: int,
        *,
        utilization: float = 1.0,
        power_limit_w: Optional[float] = None,
        pack: bool = True,
    ) -> Allocation:
        """Allocate ``n_gpus`` GPUs to ``job_id``.

        With ``pack=True`` (the default, and what energy-aware policies want)
        GPUs are taken from the most-occupied nodes first so fewer nodes are
        woken up; with ``pack=False`` they are taken from the least-occupied
        nodes (spreading, which can help thermals but costs idle overhead).
        Only the touched nodes' counters and buckets are updated.
        """
        if job_id in self._allocations:
            raise ResourceError(f"job {job_id!r} already holds an allocation")
        if n_gpus <= 0:
            raise ResourceError(f"n_gpus must be positive, got {n_gpus!r}")
        if not self.can_fit(n_gpus):
            raise ResourceError(
                f"cannot allocate {n_gpus} GPUs: only {self.n_free_gpus} free"
            )
        job_ids = self._job_ids
        node_free = self._node_free
        locations: list[tuple[int, int]] = []
        taken: dict[int, int] = {}  # node id -> GPUs taken from it
        if pack:
            # Fill the most-occupied nodes first: buckets 1..G hold the
            # non-drained nodes by ascending free count, each sorted by id.
            remaining = n_gpus
            for node_id in itertools.chain.from_iterable(self._buckets[1:]):
                take = min(node_free[node_id], remaining)
                free_indices = [index for index, held in enumerate(job_ids[node_id]) if held is None]
                locations.extend([(node_id, index) for index in free_indices[:take]])
                taken[node_id] = take
                remaining -= take
                if remaining == 0:
                    break
        else:
            # Spread: take one GPU at a time from the emptiest node remaining
            # (argmax returns the first maximum, i.e. the lowest node id).
            free = np.where(self._drained, 0, node_free)
            for _ in range(n_gpus):
                node_id = int(np.argmax(free))
                cursor = taken.get(node_id, 0)
                free_indices = [index for index, held in enumerate(job_ids[node_id]) if held is None]
                locations.append((node_id, free_indices[cursor]))
                taken[node_id] = cursor + 1
                free[node_id] -= 1
        # Commit: the job-id rows, then the touched nodes' counters and buckets.
        for node_id, index in locations:
            job_ids[node_id][index] = job_id
        gpus_per_node = self._gpus_per_node
        newly_occupied = 0
        for node_id, take in taken.items():
            free_before = node_free[node_id]
            if free_before == gpus_per_node:
                newly_occupied += 1
            node_free[node_id] = free_before - take
            self._rebucket(node_id, free_before, free_before - take)
        self._free_gpus_nondrained -= n_gpus
        self._busy_gpus += n_gpus
        self._n_occupied += newly_occupied
        utilization = float(utilization)
        cap = None if power_limit_w is None else float(power_limit_w)
        per_gpu_power = self.gpu_power_model.power_w_scalar(utilization, cap)
        self._busy_power_w += n_gpus * per_gpu_power
        allocation = Allocation(job_id, tuple(locations), utilization, cap, per_gpu_power)
        self._allocations[job_id] = allocation
        return allocation

    def release(self, job_id: str) -> Allocation:
        """Release a job's allocation, returning it.

        The allocation's own ``gpu_locations`` index the state rows
        directly — no cluster-wide GPU index is rebuilt.
        """
        allocation = self._allocations.pop(job_id, None)
        if allocation is None:
            raise ResourceError(f"job {job_id!r} holds no allocation")
        job_ids = self._job_ids
        freed: dict[int, int] = {}  # node id -> GPUs returned to it
        for node_id, index in allocation.gpu_locations:
            job_ids[node_id][index] = None
            freed[node_id] = freed.get(node_id, 0) + 1
        gpus_per_node = self._gpus_per_node
        node_free = self._node_free
        drained = self._drained
        newly_idle = 0
        for node_id, count in freed.items():
            free_before = node_free[node_id]
            node_free[node_id] = free_before + count
            if free_before + count == gpus_per_node:
                newly_idle += 1
            if not drained[node_id]:
                self._rebucket(node_id, free_before, free_before + count)
        n_gpus = allocation.n_gpus
        self._free_gpus_nondrained += n_gpus
        self._busy_gpus -= n_gpus
        self._n_occupied -= newly_idle
        self._busy_power_w -= n_gpus * allocation.per_gpu_power_w
        if self._busy_gpus == 0:
            # Exact resynchronization point: an empty cluster has zero busy
            # power by definition, which also clears any summation drift.
            self._busy_power_w = 0.0
        return allocation

    def set_power_limit(self, job_id: str, power_limit_w: Optional[float]) -> Allocation:
        """Change the power cap on every GPU held by ``job_id``, returning the replaced record."""
        allocation = self._allocations.get(job_id)
        if allocation is None:
            raise ResourceError(f"job {job_id!r} holds no allocation")
        cap = None if power_limit_w is None else float(power_limit_w)
        new_power = self.gpu_power_model.power_w_scalar(allocation.utilization, cap)
        self._allocations[job_id] = replace(allocation, power_limit_w=cap, per_gpu_power_w=new_power)
        self._busy_power_w += allocation.n_gpus * (new_power - allocation.per_gpu_power_w)
        return allocation

    def drain_nodes(self, n_nodes: int) -> int:
        """Administratively drain up to ``n_nodes`` currently idle nodes.

        Draining reduces the supplied resource quantity ``q_s`` in Eq. 1;
        only idle nodes can be drained, and the number actually drained is
        returned.
        """
        if n_nodes < 0:
            raise ResourceError(f"n_nodes must be non-negative, got {n_nodes!r}")
        # The idle non-drained nodes are exactly the full bucket, lowest ids first.
        gpus_per_node = self._gpus_per_node
        idle = self._buckets[gpus_per_node]
        chosen = idle[:n_nodes]
        del idle[:n_nodes]
        drained = self._drained
        for node_id in chosen:
            drained[node_id] = True
        self._n_drained += len(chosen)
        self._free_gpus_nondrained -= gpus_per_node * len(chosen)
        return len(chosen)

    def undrain_all(self) -> None:
        """Return every drained node to service."""
        if not self._n_drained:
            return
        drained = self._drained
        for node_id in self._drained_ids():
            drained[node_id] = False
            free = self._node_free[node_id]
            self._free_gpus_nondrained += free
            insort(self._buckets[free], node_id)
        self._n_drained = 0

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def it_power_w(self) -> float:
        """Instantaneous IT power of the cluster in its current allocation state.

        Sums GPU power (via the analytic power model, honouring per-GPU caps
        and utilizations), per-node idle power for non-drained nodes, and the
        active-node overhead for occupied nodes.  O(1): every term is a
        maintained counter, and the busy-GPU term is delta-maintained by
        ``allocate``/``release``/``set_power_limit``.
        """
        facility = self.facility
        return (
            facility.node_idle_power_w * (self._n_nodes - self._n_drained)
            + facility.node_active_overhead_w * self._n_occupied
            + self.gpu_spec.idle_power_w * self._free_gpus_nondrained
            + self._busy_power_w
        )

    # ------------------------------------------------------------------
    # Public read of the whole state
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """A JSON-able dict of the pool's dynamic state.

        Holds the allocation records (locations, utilization and cap), the
        drained-node set, and the accumulated ``busy_power_w`` total.  The
        records plus the drained set are the whole per-GPU table, so two
        pools with equal snapshots are in the same state.
        """
        allocations = [
            {
                "job_id": job_id,
                "locations": [list(loc) for loc in allocation.gpu_locations],
                "utilization": allocation.utilization,
                "power_limit_w": allocation.power_limit_w,
            }
            for job_id, allocation in self._allocations.items()
        ]
        return {
            "n_nodes": self._n_nodes,
            "gpus_per_node": self._gpus_per_node,
            "gpu_model": self.gpu_spec.name,
            "drained": self._drained_ids(),
            "allocations": allocations,
            "busy_power_w": self._busy_power_w,
        }

    # ------------------------------------------------------------------
    # Job-id rows, drain flags and free-count buckets
    # ------------------------------------------------------------------
    def _drained_ids(self) -> list[int]:
        """Ids of the drained nodes, ascending."""
        return [node_id for node_id, drained in enumerate(self._drained) if drained]

    def _rebucket(self, node_id: int, free_before: int, free_after: int) -> None:
        """Move a non-drained node between free-count buckets."""
        bucket = self._buckets[free_before]
        del bucket[bisect_left(bucket, node_id)]
        insort(self._buckets[free_after], node_id)

    def _rebuild_buckets(self) -> None:
        """Rebuild every bucket from the per-node counters and drain flags."""
        self._buckets: list[list[int]] = [[] for _ in range(self._gpus_per_node + 1)]
        for node_id, (free, drained) in enumerate(zip(self._node_free, self._drained)):
            if not drained:
                self._buckets[free].append(node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(nodes={self._n_nodes}, gpus={self.total_gpus}, "
            f"busy={self.n_busy_gpus}, drained_nodes={self.n_drained_nodes})"
        )
