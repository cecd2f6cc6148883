"""The synthetic datacenter workload behind the ``repro bench sim`` ``large`` row."""

import pytest

from repro.hardware.topology import large_cluster
from repro.sim.workloads import build_cluster_workload, run_cluster_workload


class TestLargeCluster:
    def test_shape(self):
        topology = large_cluster(16, 4)
        assert topology.n_gpus == 16
        assert "4x4" in topology.name

    @pytest.mark.parametrize("n_gpus,group", [(0, 4), (6, 4), (-8, 4), (8, 0)])
    def test_invalid_shapes_rejected(self, n_gpus, group):
        with pytest.raises(ValueError):
            large_cluster(n_gpus, group)


class TestBuildClusterWorkload:
    def test_task_count_and_chaining(self):
        topology = large_cluster(8, 4)
        tasks = build_cluster_workload(topology, rounds=3)
        assert len(tasks) == 3 * 8 * 3  # upload/compute/offload per round
        # Each GPU's rounds form a chain: every task after the first upload
        # has exactly one dependency.
        _, _, indegree = tasks.successors()
        assert indegree.count(0) == 8
        assert set(indegree) == {0, 1}

    def test_rounds_validated(self):
        with pytest.raises(ValueError, match="rounds"):
            build_cluster_workload(large_cluster(8, 4), rounds=0)

    def test_deterministic_variation(self):
        """The integer-hash variation is frozen — same inputs, same graph."""
        a = build_cluster_workload(large_cluster(8, 4), rounds=2)
        b = build_cluster_workload(large_cluster(8, 4), rounds=2)
        assert a.nbytes == b.nbytes
        assert a.seconds == b.seconds


class TestRunClusterWorkload:
    def test_run_is_reproducible(self):
        topology = large_cluster(8, 4)
        first = run_cluster_workload(topology, rounds=4)
        second = run_cluster_workload(topology, rounds=4)
        assert first.digest == second.digest
        assert first.events_processed == second.events_processed
        assert first.n_tasks == 3 * 8 * 4

    def test_event_count_scales_with_rounds(self):
        topology = large_cluster(8, 4)
        small = run_cluster_workload(topology, rounds=2)
        big = run_cluster_workload(topology, rounds=4)
        # ~2.9 events per (gpu, round): upload + compute + offload minus
        # same-instant coalescing of flow completions.  Each compute row is
        # exactly one event, and the floor allows each flow-completion
        # event to retire two flows; exact values pinned by the digest gate.
        assert big.events_processed > small.events_processed
        assert small.events_processed >= 2 * 8 * 2

    def test_vector_and_scalar_flow_paths_agree(self, monkeypatch):
        """Forcing the SoA flow arrays on (threshold 0) or off (huge
        threshold) must not move a single bit of the trace.
        """
        from repro.sim.resources import FlowNetwork

        topology = large_cluster(8, 4)
        monkeypatch.setattr(FlowNetwork, "vector_threshold", 0)
        vectored = run_cluster_workload(topology, rounds=4)
        monkeypatch.setattr(FlowNetwork, "vector_threshold", 1 << 30)
        scalar = run_cluster_workload(topology, rounds=4)
        assert vectored.digest == scalar.digest
        assert vectored.events_processed == scalar.events_processed
