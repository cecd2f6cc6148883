"""Trace and model analyses: traffic, bandwidth CDFs, overlap, price."""

from repro.analysis.bandwidth import (
    BandwidthCDF,
    bandwidth_cdf,
    fraction_of_bytes_above,
    fraction_of_bytes_below,
)
from repro.analysis.overlap import OverlapStats, overlap_stats
from repro.analysis.price import PricePoint
from repro.analysis.timeline import ascii_gantt, to_chrome_trace
from repro.analysis.traffic import (
    TrafficEstimate,
    deepspeed_traffic,
    mobius_traffic,
    model_size_bytes,
)

__all__ = [
    "BandwidthCDF",
    "ascii_gantt",
    "to_chrome_trace",
    "OverlapStats",
    "PricePoint",
    "TrafficEstimate",
    "bandwidth_cdf",
    "deepspeed_traffic",
    "fraction_of_bytes_above",
    "fraction_of_bytes_below",
    "mobius_traffic",
    "model_size_bytes",
    "overlap_stats",
]
