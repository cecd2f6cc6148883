"""Tests for trace post-processing: intervals, CDFs, overlap."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.trace import (
    merge_intervals,
    subtract_intervals,
    total_length,
)
from tests.helpers import compute_seconds, make_trace

GB = 1e9

interval = st.tuples(
    st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100)
).map(lambda t: (min(t), max(t)))


class TestIntervalAlgebra:
    def test_merge_overlapping(self):
        assert merge_intervals([(0, 2), (1, 3)]) == [(0, 3)]

    def test_merge_adjacent(self):
        assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]

    def test_merge_disjoint(self):
        assert merge_intervals([(3, 4), (0, 1)]) == [(0, 1), (3, 4)]

    def test_merge_drops_empty(self):
        assert merge_intervals([(1, 1), (2, 1)]) == []

    def test_subtract_middle_hole(self):
        assert subtract_intervals([(0, 10)], [(3, 5)]) == [(0, 3), (5, 10)]

    def test_subtract_covering_hole(self):
        assert subtract_intervals([(2, 4)], [(0, 10)]) == []

    def test_subtract_disjoint_hole(self):
        assert subtract_intervals([(0, 2)], [(5, 6)]) == [(0, 2)]

    def test_subtract_multiple_holes(self):
        result = subtract_intervals([(0, 10)], [(1, 2), (4, 5), (9, 12)])
        assert result == [(0, 1), (2, 4), (5, 9)]

    def test_total_length_merges_first(self):
        assert total_length([(0, 2), (1, 3)]) == pytest.approx(3.0)

    @given(st.lists(interval, max_size=12), st.lists(interval, max_size=12))
    def test_subtract_length_bounds(self, base, holes):
        """Property: |base \\ holes| <= |base| and the pieces avoid holes."""
        result = subtract_intervals(base, holes)
        assert total_length(result) <= total_length(base) + 1e-9
        merged_holes = merge_intervals(holes)
        for start, end in result:
            for hole_start, hole_end in merged_holes:
                assert end <= hole_start or start >= hole_end

    @given(st.lists(interval, max_size=12), st.lists(interval, max_size=12))
    def test_subtract_partitions_base(self, base, holes):
        """Property: |base \\ holes| + |base intersect holes| == |base|."""
        diff = total_length(subtract_intervals(base, holes))
        inter = total_length(base) - diff
        # Intersection computed independently.
        expected_inter = total_length(base) - total_length(
            subtract_intervals(base, holes)
        )
        assert inter == pytest.approx(expected_inter)


class TestTrace:
    def make_trace(self):
        return make_trace(
            2,
            compute=[(0, 0.0, 2.0, "F"), (1, 1.0, 3.0, "F")],
            transfers=[
                (0, 0.0, 1.0, 1 * GB, "param-upload"),
                (0, 1.5, 3.5, 1 * GB, "grad-offload"),
                (1, 0.0, 0.5, 2 * GB, "activation"),
            ],
        )

    def test_makespan(self):
        assert self.make_trace().makespan == pytest.approx(3.5)

    def test_makespan_empty(self):
        assert make_trace(1).makespan == 0.0

    def test_total_bytes(self):
        assert self.make_trace().total_transfer_bytes() == pytest.approx(4 * GB)

    def test_total_bytes_filtered_by_kind(self):
        trace = self.make_trace()
        assert trace.total_transfer_bytes(["activation"]) == pytest.approx(2 * GB)
        assert trace.total_transfer_bytes(["param-upload", "grad-offload"]) == pytest.approx(
            2 * GB
        )

    def test_bandwidth_samples_weighted_by_bytes(self):
        bandwidths, weights = self.make_trace().bandwidth_samples()
        assert len(bandwidths) == 3
        assert weights.sum() == pytest.approx(4 * GB)

    def test_bandwidth_cdf_monotone(self):
        trace = self.make_trace()
        grid = [0.5 * GB * i for i in range(10)]
        cdf = trace.bandwidth_cdf(grid)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0)

    def test_bandwidth_cdf_empty_trace(self):
        assert list(make_trace(1).bandwidth_cdf([0.0, 1.0])) == [0.0, 0.0]

    def test_median_bandwidth(self):
        trace = make_trace(
            1,
            transfers=[
                (0, 0.0, 1.0, 1 * GB),  # 1 GB/s
                (0, 0.0, 1.0, 3 * GB),  # 3 GB/s with 3x weight
            ],
        )
        assert trace.median_bandwidth() == pytest.approx(3 * GB)

    def test_non_overlapped_comm(self):
        trace = self.make_trace()
        # GPU 0: comm [0,1] u [1.5,3.5]; compute [0,2] -> exposed [2,3.5].
        assert trace.non_overlapped_comm_seconds(0) == pytest.approx(1.5)
        # GPU 1: comm [0,0.5]; compute [1,3] -> exposed [0,0.5].
        assert trace.non_overlapped_comm_seconds(1) == pytest.approx(0.5)

    def test_non_overlapped_fraction_is_mean_over_gpus(self):
        trace = self.make_trace()
        expected = (1.5 / 3.5 + 0.5 / 3.5) / 2
        assert trace.non_overlapped_comm_fraction() == pytest.approx(expected)

    def test_compute_seconds(self):
        trace = self.make_trace()
        assert compute_seconds(trace, 0) == pytest.approx(2.0)
        assert compute_seconds(trace) == pytest.approx(4.0)

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            make_trace(0)
