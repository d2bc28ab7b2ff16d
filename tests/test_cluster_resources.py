"""Tests for the cluster resource model (allocation, release, power)."""

import pytest

from repro.config import FacilityConfig
from repro.cluster.resources import Cluster
from repro.errors import ResourceError
from scan_cluster import ScanCluster


@pytest.fixture()
def cluster() -> Cluster:
    return Cluster(FacilityConfig(n_nodes=4, gpus_per_node=2), gpu_model="V100")


def scan_power(cluster: Cluster) -> float:
    """IT power of the scan reference rebuilt from the cluster's snapshot."""
    return ScanCluster.from_snapshot(cluster).it_power_w()


class TestCapacity:
    def test_total_and_free(self, cluster):
        assert cluster.total_gpus == 8
        assert cluster.n_free_gpus == 8
        assert cluster.n_busy_gpus == 0

    def test_can_fit(self, cluster):
        assert cluster.can_fit(8)
        assert not cluster.can_fit(9)
        with pytest.raises(ResourceError):
            cluster.can_fit(0)


class TestAllocation:
    def test_allocate_and_release(self, cluster):
        allocation = cluster.allocate("job1", 3, utilization=0.9)
        assert allocation.n_gpus == 3
        assert cluster.n_free_gpus == 5
        released = cluster.release("job1")
        assert released.job_id == "job1"
        assert cluster.n_free_gpus == 8

    def test_double_allocation_rejected(self, cluster):
        cluster.allocate("job1", 1)
        with pytest.raises(ResourceError):
            cluster.allocate("job1", 1)

    def test_release_unknown_job(self, cluster):
        with pytest.raises(ResourceError):
            cluster.release("ghost")

    def test_over_allocation_rejected(self, cluster):
        with pytest.raises(ResourceError):
            cluster.allocate("big", 9)

    def test_packing_minimises_occupied_nodes(self, cluster):
        cluster.allocate("a", 2, pack=True)
        cluster.allocate("b", 2, pack=True)
        assert cluster.n_occupied_nodes == 2

    def test_spreading_maximises_occupied_nodes(self, cluster):
        cluster.allocate("a", 2, pack=False)
        cluster.allocate("b", 2, pack=False)
        assert cluster.n_occupied_nodes >= 3

    def test_node_state_refresh(self, cluster):
        allocation = cluster.allocate("a", 3)
        occupied = {node_id for node_id, _ in allocation.gpu_locations}
        assert cluster.n_occupied_nodes == len(occupied) == 2
        cluster.release("a")
        assert cluster.n_occupied_nodes == 0

    def test_set_power_limit(self, cluster):
        cluster.allocate("a", 2)
        uncapped = cluster.it_power_w()
        cluster.set_power_limit("a", 150.0)
        (entry,) = cluster.snapshot_state()["allocations"]
        assert entry["job_id"] == "a"
        assert entry["power_limit_w"] == 150.0
        assert cluster.it_power_w() < uncapped
        with pytest.raises(ResourceError):
            cluster.set_power_limit("ghost", 150.0)

    def test_release_resets_gpu_state(self, cluster):
        idle = cluster.it_power_w()
        cluster.allocate("a", 2, utilization=0.8, power_limit_w=180.0)
        cluster.release("a")
        assert cluster.snapshot_state()["allocations"] == []
        assert cluster.n_busy_gpus == 0
        assert cluster.it_power_w() == idle
        assert scan_power(cluster) == pytest.approx(idle, rel=1e-12)
        # The released GPUs are free and uncapped again: re-allocating them
        # uncapped draws exactly what a fresh cluster's allocation draws.
        cluster.allocate("b", 2, utilization=0.8)
        fresh = Cluster(cluster.facility, gpu_model="V100")
        fresh.allocate("b", 2, utilization=0.8)
        assert cluster.snapshot_state() == fresh.snapshot_state()
        assert cluster.it_power_w() == fresh.it_power_w()


class TestDraining:
    def test_drain_reduces_capacity(self, cluster):
        drained = cluster.drain_nodes(2)
        assert drained == 2
        assert cluster.n_free_gpus == 4
        assert cluster.n_drained_nodes == 2

    def test_drain_only_idle_nodes(self, cluster):
        cluster.allocate("a", 8)  # occupy everything
        assert cluster.drain_nodes(2) == 0

    def test_undrain_restores(self, cluster):
        cluster.drain_nodes(3)
        cluster.undrain_all()
        assert cluster.n_free_gpus == 8
        assert cluster.n_drained_nodes == 0

    def test_negative_drain_rejected(self, cluster):
        with pytest.raises(ResourceError):
            cluster.drain_nodes(-1)


class TestPower:
    def test_idle_power(self, cluster):
        expected = 4 * (cluster.facility.node_idle_power_w + 2 * cluster.gpu_spec.idle_power_w)
        assert cluster.it_power_w() == pytest.approx(expected)

    def test_power_increases_with_allocation(self, cluster):
        idle = cluster.it_power_w()
        cluster.allocate("a", 4, utilization=1.0)
        assert cluster.it_power_w() > idle

    def test_power_cap_reduces_power(self, cluster):
        cluster.allocate("a", 4, utilization=1.0)
        uncapped = cluster.it_power_w()
        cluster.set_power_limit("a", 150.0)
        assert cluster.it_power_w() < uncapped

    def test_drained_nodes_draw_nothing(self, cluster):
        idle = cluster.it_power_w()
        cluster.drain_nodes(2)
        assert cluster.it_power_w() == pytest.approx(idle / 2)

    def test_incremental_power_matches_recompute(self, cluster):
        """The delta-maintained O(1) power tracks the scan reference."""
        cluster.allocate("a", 3, utilization=0.7, power_limit_w=180.0)
        cluster.allocate("b", 2, utilization=1.0)
        cluster.set_power_limit("b", 140.0)
        cluster.drain_nodes(1)
        assert cluster.it_power_w() == pytest.approx(scan_power(cluster), rel=1e-12)
        cluster.release("a")
        cluster.undrain_all()
        assert cluster.it_power_w() == pytest.approx(scan_power(cluster), rel=1e-12)

    def test_set_power_limit_updates_cached_power(self, cluster):
        cluster.allocate("a", 4, utilization=1.0, power_limit_w=150.0)
        capped = cluster.it_power_w()
        cluster.set_power_limit("a", None)
        assert cluster.it_power_w() > capped
        assert cluster.it_power_w() == pytest.approx(scan_power(cluster), rel=1e-12)
