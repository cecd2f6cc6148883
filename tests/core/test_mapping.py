"""Tests for cross mapping (Eqs. 12-13)."""

import itertools
import math

import numpy as np
import pytest

from repro.core.mapping import (
    _residue_weights,
    _shared_matrix,
    contention_degree,
    cross_mapping,
    sequential_mapping,
)
from repro.core.plan import Mapping
from repro.hardware.topology import (
    commodity_server,
    datacenter_server,
    topo_1_3,
    topo_2_2,
    topo_4,
    topo_4_4,
)


class TestContentionDegree:
    def test_matches_hand_computation(self):
        # Topo 2+2, sequential mapping, 4 stages: GPU pairs under the same
        # RC are (0,1) and (2,3) -> stage pairs (0,1) and (2,3), each with
        # shared = 2 and distance 1; same-GPU pairs don't exist for S = 4.
        topo = topo_2_2()
        degree = contention_degree(topo, Mapping.sequential(4), 4)
        assert degree == pytest.approx(2 / 1 + 2 / 1)

    def test_cross_mapping_reduces_hand_case(self):
        # Interleave the two root complexes: adjacent stages never share.
        topo = topo_2_2()
        crossed = Mapping((0, 2, 1, 3))
        assert contention_degree(topo, crossed, 4) < contention_degree(
            topo, Mapping.sequential(4), 4
        )

    def test_single_rc_is_mapping_invariant(self):
        # With all GPUs under one root complex, every permutation scores
        # identically.
        topo = topo_4()
        scores = {
            contention_degree(topo, Mapping(p), 8)
            for p in itertools.permutations(range(4))
        }
        assert len(scores) == 1

    def test_distance_decay(self):
        # Stage pairs further apart contribute less (1 / |i - j|).
        topo = topo_2_2()
        mapping = Mapping.sequential(4)
        short = contention_degree(topo, mapping, 5)
        assert short > contention_degree(topo, mapping, 4)

    def test_invalid_stage_count(self):
        with pytest.raises(ValueError):
            contention_degree(topo_2_2(), Mapping.sequential(4), 0)


class TestCrossMapping:
    @pytest.mark.parametrize("topo_factory", [topo_2_2, topo_1_3, topo_4, topo_4_4])
    def test_exhaustive_optimum(self, topo_factory):
        topo = topo_factory()
        n_stages = 2 * topo.n_gpus
        result = cross_mapping(topo, n_stages)
        best = min(
            contention_degree(topo, Mapping(p), n_stages)
            for p in itertools.permutations(range(topo.n_gpus))
        )
        assert result.contention == pytest.approx(best)

    @pytest.mark.parametrize(
        ("topo_factory", "n_classes"),
        [
            (topo_4, 1),
            (topo_2_2, 6),
            (topo_1_3, 4),
            (topo_4_4, 70),
            (lambda: commodity_server([4, 4]), 70),
            (lambda: datacenter_server(2), 1),
            (lambda: datacenter_server(4), 6),
            (lambda: datacenter_server(6), 90),
            (lambda: datacenter_server(8), 2520),
        ],
        ids=["4", "2+2", "1+3", "4+4", "cluster-2x4", "dc2", "dc4", "dc6", "dc8"],
    )
    def test_class_search_equals_full_permutation_scan(self, topo_factory, n_classes):
        # The N! scan the class search replaces: every permutation in
        # lexicographic order, batched scoring, 1e-12 strict improvement.
        topo = topo_factory()
        n = topo.n_gpus
        shared = _shared_matrix(topo)
        perms = list(itertools.permutations(range(n)))
        indices = np.array(perms, dtype=np.intp)
        blocks = shared[indices[:, :, None], indices[:, None, :]]
        for n_stages in range(1, 81):
            weights = _residue_weights(n_stages, n)
            scores = (weights[np.newaxis] * blocks).sum(axis=(1, 2)).tolist()
            best_perm, best_score = None, math.inf
            for perm, score in zip(perms, scores):
                if score < best_score - 1e-12:
                    best_perm, best_score = perm, score
            result = cross_mapping(topo, n_stages)
            assert result.mapping.perm == best_perm, n_stages
            assert result.schemes_evaluated == n_classes

    def test_beats_sequential_on_2_2(self):
        topo = topo_2_2()
        crossed = cross_mapping(topo, 8)
        sequential = contention_degree(topo, Mapping.sequential(4), 8)
        assert crossed.contention < sequential

    def test_adjacent_stages_on_different_rcs_where_possible(self):
        topo = topo_2_2()
        result = cross_mapping(topo, 8)
        perm = result.mapping.perm
        for a, b in zip(perm, perm[1:]):
            assert not topo.share_root_complex(a, b)

    def test_large_server_uses_heuristic(self):
        topo = commodity_server([4, 4, 4])  # 12 GPUs > exact-search limit
        result = cross_mapping(topo, 24)
        assert result.schemes_evaluated == 1
        perm = result.mapping.perm
        assert sorted(perm) == list(range(12))
        # Heuristic interleaves root complexes.
        assert not topo.share_root_complex(perm[0], perm[1])

    def test_sequential_mapping_identity(self):
        result = sequential_mapping(topo_2_2())
        assert result.mapping.perm == (0, 1, 2, 3)


def _contention_per_pair(topo, mapping, n_stages):
    """Eq. 13 as the literal per-pair loop over topology queries."""
    total = 0.0
    for i in range(n_stages):
        gpu_i = mapping.gpu_of_stage(i)
        for j in range(i + 1, n_stages):
            shared = topo.shared_group_size(gpu_i, mapping.gpu_of_stage(j))
            if shared:
                total += shared / (j - i)
    return total


def _residue_weights_in_array(n_stages, n_gpus):
    """The residue weights accumulated element by element in the array."""
    weights = np.zeros((n_gpus, n_gpus))
    for i in range(n_stages):
        for j in range(i + 1, n_stages):
            weights[i % n_gpus, j % n_gpus] += 1.0 / (j - i)
    return weights


class TestHoistedLoopsAreBitIdentical:
    @pytest.mark.parametrize(
        "topo_factory",
        [
            topo_4,
            topo_2_2,
            topo_1_3,
            topo_4_4,
            lambda: commodity_server([4, 4]),
            lambda: datacenter_server(8),
        ],
        ids=["4", "2+2", "1+3", "4+4", "cluster-2x4", "dc8"],
    )
    def test_against_per_pair_loops(self, topo_factory):
        topo = topo_factory()
        n = topo.n_gpus
        sequential = Mapping.sequential(n)
        reversed_perm = Mapping(tuple(reversed(range(n))))
        for n_stages in range(1, 81):
            weights = _residue_weights(n_stages, n)
            expected = _residue_weights_in_array(n_stages, n)
            assert weights.dtype == expected.dtype and weights.shape == expected.shape
            assert weights.tobytes() == expected.tobytes(), n_stages
            result = cross_mapping(topo, n_stages)
            for mapping in (result.mapping, sequential, reversed_perm):
                assert contention_degree(topo, mapping, n_stages) == (
                    _contention_per_pair(topo, mapping, n_stages)
                ), (n_stages, mapping.perm)
            assert result.contention == _contention_per_pair(
                topo, result.mapping, n_stages
            )
