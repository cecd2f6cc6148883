"""Tests for bandwidth CDF analysis."""

import numpy as np
import pytest

from repro.analysis.bandwidth import (
    bandwidth_cdf,
    fraction_of_bytes_above,
    fraction_of_bytes_below,
)
from tests.helpers import make_trace

GB = 1e9


@pytest.fixture
def trace():
    return make_trace(
        2,
        transfers=[
            (0, 0.0, 1.0, 2 * GB, "a"),  # 2 GB/s
            (0, 0.0, 1.0, 6 * GB, "a"),  # 6 GB/s
            (1, 0.0, 1.0, 12 * GB, "b"),  # 12 GB/s
        ],
    )


class TestCDF:
    def test_values_on_grid(self, trace):
        cdf = bandwidth_cdf(trace, grid_gbps=[0, 3, 7, 13])
        assert cdf.cdf == pytest.approx((0.0, 0.1, 0.4, 1.0))

    def test_monotone_and_normalised(self, trace):
        cdf = bandwidth_cdf(trace)
        values = np.array(cdf.cdf)
        assert np.all(np.diff(values) >= 0)
        assert values[-1] == pytest.approx(1.0)

    def test_kind_filter(self, trace):
        cdf = bandwidth_cdf(trace, kinds=["b"], grid_gbps=[0, 11, 13])
        assert cdf.cdf[-1] == pytest.approx(1.0)
        assert cdf.cdf[1] == 0.0  # the only "b" transfer is 12 GB/s

    def test_rows_pairs(self, trace):
        cdf = bandwidth_cdf(trace, grid_gbps=[0, 13])
        assert cdf.rows() == [(0, 0.0), (13, 1.0)]

    def test_label(self, trace):
        assert bandwidth_cdf(trace, label="DS").label == "DS"


class TestFractions:
    def test_below(self, trace):
        assert fraction_of_bytes_below(trace, 6.5) == pytest.approx(8 / 20)

    def test_above(self, trace):
        assert fraction_of_bytes_above(trace, 6.5) == pytest.approx(12 / 20)

    def test_complementary(self, trace):
        below = fraction_of_bytes_below(trace, 9.0)
        above = fraction_of_bytes_above(trace, 9.0)
        assert below + above == pytest.approx(1.0)

    def test_empty_trace(self):
        empty = make_trace(1)
        assert fraction_of_bytes_below(empty, 5.0) == 0.0
        assert fraction_of_bytes_above(empty, 5.0) == 0.0
