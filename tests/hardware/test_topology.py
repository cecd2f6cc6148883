"""Tests for interconnect topology models."""

import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware.gpu import RTX_3090TI
from repro.hardware.topology import (
    DRAM_BW,
    NVLINK_BW,
    PCIE_EFFECTIVE_BW,
    Topology,
    commodity_server,
    datacenter_server,
    topo_1_3,
    topo_2_2,
    topo_4,
    topo_4_4,
)


class TestConstruction:
    def test_gpu_counts(self):
        assert topo_4().n_gpus == 4
        assert topo_2_2().n_gpus == 4
        assert topo_1_3().n_gpus == 4
        assert topo_4_4().n_gpus == 8

    def test_root_complex_counts(self):
        assert topo_4().n_root_complexes == 1
        assert topo_2_2().n_root_complexes == 2
        assert topo_4_4().n_root_complexes == 2

    def test_names(self):
        assert topo_2_2().name == "Topo 2+2"
        assert topo_4().name == "Topo 4"
        assert topo_1_3().name == "Topo 1+3"

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            Topology(RTX_3090TI, [])
        with pytest.raises(ValueError):
            Topology(RTX_3090TI, [2, 0])

    def test_commodity_has_no_p2p(self):
        assert not topo_2_2().has_p2p

    def test_datacenter_has_p2p(self):
        assert datacenter_server().has_p2p

    def test_datacenter_rejects_odd_count(self):
        with pytest.raises(ValueError):
            datacenter_server(3)


class TestRootComplexes:
    def test_topo_2_2_grouping(self):
        topo = topo_2_2()
        assert topo.root_complex_of(0) == topo.root_complex_of(1) == 0
        assert topo.root_complex_of(2) == topo.root_complex_of(3) == 1

    def test_topo_1_3_grouping(self):
        topo = topo_1_3()
        assert topo.gpus_under_root_complex(0) == (0,)
        assert topo.gpus_under_root_complex(1) == (1, 2, 3)

    def test_share_root_complex(self):
        topo = topo_2_2()
        assert topo.share_root_complex(0, 1)
        assert not topo.share_root_complex(1, 2)

    def test_shared_group_size_eq12(self):
        # shared(i, j) of Eq. 12: GPUs under the common root complex.
        topo = topo_1_3()
        assert topo.shared_group_size(1, 2) == 3
        assert topo.shared_group_size(0, 1) == 0
        assert topo.shared_group_size(0, 0) == 1

    def test_gpu_out_of_range(self):
        with pytest.raises(ValueError):
            topo_4().root_complex_of(4)
        with pytest.raises(ValueError):
            topo_4().root_complex_of(-1)

    def test_unknown_root_complex(self):
        with pytest.raises(ValueError):
            topo_4().gpus_under_root_complex(1)


class TestPaths:
    def test_dram_path_traverses_switch_and_rc(self):
        topo = topo_2_2()
        assert topo.path_to_dram(2) == (("gpu2", "sw1"), ("sw1", "rc1"), ("rc1", "dram"))

    def test_from_dram_reverses_direction(self):
        topo = topo_2_2()
        down = topo.path_from_dram(2)
        up = topo.path_to_dram(2)
        assert down == tuple((v, u) for (u, v) in reversed(up))

    def test_gpu_to_gpu_bounces_without_p2p(self):
        topo = topo_2_2()
        path = topo.gpu_to_gpu_path(0, 2)
        assert path == topo.path_to_dram(0) + topo.path_from_dram(2)

    def test_gpu_to_gpu_direct_with_nvlink(self):
        topo = datacenter_server()
        assert topo.gpu_to_gpu_path(0, 2) == (("gpu0", "gpu2"),)

    def test_same_gpu_transfer_is_empty(self):
        assert topo_2_2().gpu_to_gpu_path(1, 1) == ()

    def test_full_duplex_edges_are_independent(self):
        topo = topo_2_2()
        assert topo.bandwidth_of(("gpu0", "sw0")) == PCIE_EFFECTIVE_BW
        assert topo.bandwidth_of(("sw0", "gpu0")) == PCIE_EFFECTIVE_BW

    def test_dram_edge_bandwidth(self):
        assert topo_2_2().bandwidth_of(("rc0", "dram")) == DRAM_BW

    def test_nvlink_edge_bandwidth(self):
        assert datacenter_server().bandwidth_of(("gpu0", "gpu1")) == NVLINK_BW

    def test_unknown_edge_raises(self):
        with pytest.raises(KeyError):
            topo_2_2().bandwidth_of(("gpu0", "dram"))

    def test_path_bandwidth_is_min_edge(self):
        topo = topo_2_2()
        assert topo.path_bandwidth(topo.path_to_dram(0)) == PCIE_EFFECTIVE_BW

    def test_empty_path_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            topo_2_2().path_bandwidth(())


def _reference_to_dram(topo, gpu):
    rc = topo.root_complex_of(gpu)
    return ((f"gpu{gpu}", f"sw{rc}"), (f"sw{rc}", f"rc{rc}"), (f"rc{rc}", "dram"))


def _reference_from_dram(topo, gpu):
    rc = topo.root_complex_of(gpu)
    return (("dram", f"rc{rc}"), (f"rc{rc}", f"sw{rc}"), (f"sw{rc}", f"gpu{gpu}"))


def _reference_gpu_to_gpu(topo, src, dst):
    if src == dst:
        return ()
    if topo.has_p2p:
        return ((f"gpu{src}", f"gpu{dst}"),)
    return _reference_to_dram(topo, src) + _reference_from_dram(topo, dst)


class TestPathTables:
    """Paths are shared, memoised tuples equal to ones built from node names."""

    @pytest.mark.parametrize(
        "factory", [topo_4_4, datacenter_server], ids=["4+4", "dc4"]
    )
    def test_memoised_paths_match_reference(self, factory):
        topo = factory()
        for gpu in range(topo.n_gpus):
            assert topo.path_to_dram(gpu) == _reference_to_dram(topo, gpu)
            assert topo.path_from_dram(gpu) == _reference_from_dram(topo, gpu)
            assert topo.gpu_to_gpu_path(gpu, gpu) == ()
            for dst in range(topo.n_gpus):
                assert topo.gpu_to_gpu_path(gpu, dst) == _reference_gpu_to_gpu(
                    topo, gpu, dst
                )

    @pytest.mark.parametrize(
        "factory", [topo_4_4, datacenter_server], ids=["4+4", "dc4"]
    )
    def test_repeated_calls_share_one_object(self, factory):
        topo = factory()
        for gpu in range(topo.n_gpus):
            assert topo.path_to_dram(gpu) is topo.path_to_dram(gpu)
            assert topo.path_from_dram(gpu) is topo.path_from_dram(gpu)
            for dst in range(topo.n_gpus):
                assert topo.gpu_to_gpu_path(gpu, dst) is topo.gpu_to_gpu_path(gpu, dst)

    def test_paths_share_the_interned_edges(self):
        topo = topo_4_4()
        interned = {id(edge) for edge in topo.links}
        for src in range(topo.n_gpus):
            for dst in range(topo.n_gpus):
                assert all(id(edge) in interned for edge in topo.gpu_to_gpu_path(src, dst))

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_out_of_range_still_raises_when_warm(self, bad):
        topo = topo_4_4()
        for src in range(topo.n_gpus):
            for dst in range(topo.n_gpus):
                topo.gpu_to_gpu_path(src, dst)
        with pytest.raises(ValueError):
            topo.gpu_to_gpu_path(bad, 0)
        with pytest.raises(ValueError):
            topo.gpu_to_gpu_path(0, bad)
        with pytest.raises(ValueError):
            topo.path_to_dram(bad)
        with pytest.raises(ValueError):
            topo.path_from_dram(bad)

    def test_link_table_is_dense(self):
        topo = commodity_server([4] * 4)
        assert len(topo.links) == len(topo.link_bandwidths) == len(set(topo.links))
        for eid, edge in enumerate(topo.links):
            assert topo.link_id(edge) == eid
            assert topo.bandwidth_of(edge) == topo.link_bandwidths[eid]


def test_topology_and_simulator_import_without_networkx():
    code = (
        "import sys, repro.hardware.topology, repro.sim.tasks; "
        "assert 'networkx' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


@given(groups=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
def test_every_gpu_reaches_dram(groups):
    """Property: on any commodity server, each GPU has a 3-edge DRAM path
    whose edges all exist in the topology with positive bandwidth."""
    topo = commodity_server(groups)
    for gpu in range(topo.n_gpus):
        for path in (topo.path_to_dram(gpu), topo.path_from_dram(gpu)):
            assert len(path) == 3
            for edge in path:
                assert topo.bandwidth_of(edge) > 0


@given(groups=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
def test_group_partition_is_consistent(groups):
    """Property: root-complex membership partitions the GPU set exactly."""
    topo = commodity_server(groups)
    seen = []
    for rc in range(topo.n_root_complexes):
        members = topo.gpus_under_root_complex(rc)
        assert len(members) == groups[rc]
        for gpu in members:
            assert topo.root_complex_of(gpu) == rc
        seen.extend(members)
    assert sorted(seen) == list(range(topo.n_gpus))
