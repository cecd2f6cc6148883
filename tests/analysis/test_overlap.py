"""Tests for overlap statistics (Figure 8)."""

import pytest

from repro.analysis.overlap import overlap_stats
from tests.helpers import make_trace

GB = 1e9


class TestOverlapStats:
    def test_fully_overlapped(self):
        trace = make_trace(1, [(0, 0.0, 2.0)], [(0, 0.5, 1.5, GB)])
        stats = overlap_stats(trace)
        assert stats.non_overlapped_fraction == 0.0
        assert stats.comm_fraction == pytest.approx(0.5)
        assert stats.compute_fraction == pytest.approx(1.0)

    def test_fully_exposed(self):
        trace = make_trace(1, transfers=[(0, 0.0, 2.0, GB)])
        stats = overlap_stats(trace)
        assert stats.non_overlapped_fraction == pytest.approx(1.0)
        assert stats.compute_fraction == 0.0

    def test_partial_overlap(self):
        trace = make_trace(1, [(0, 0.0, 1.0)], [(0, 0.5, 2.0, GB)])
        stats = overlap_stats(trace)
        assert stats.step_seconds == pytest.approx(2.0)
        assert stats.non_overlapped_fraction == pytest.approx(0.5)

    def test_mean_over_gpus(self):
        trace = make_trace(
            2,
            [(0, 0.0, 2.0)],
            [
                (0, 0.0, 2.0, GB),  # overlapped on GPU 0
                (1, 0.0, 2.0, GB),  # exposed on GPU 1
            ],
        )
        stats = overlap_stats(trace)
        assert stats.non_overlapped_fraction == pytest.approx(0.5)

    def test_empty_trace(self):
        stats = overlap_stats(make_trace(1))
        assert stats.step_seconds == 0.0
        assert stats.non_overlapped_fraction == 0.0
