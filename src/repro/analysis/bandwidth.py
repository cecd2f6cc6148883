"""Bandwidth-CDF extraction (Figures 2, 7, 11, 16).

The paper characterises communication health with byte-weighted CDFs of
per-transfer bandwidth: a system whose transfers contend at a CPU root
complex sees most bytes move at half (or less) of the link's maximum.  This
module turns simulator traces into the same curves and summary statistics.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.sim.trace import Trace

__all__ = ["BandwidthCDF", "bandwidth_cdf", "fraction_of_bytes_above", "fraction_of_bytes_below"]

GB = 1e9


@dataclasses.dataclass(frozen=True)
class BandwidthCDF:
    """A byte-weighted bandwidth CDF sampled on a fixed grid.

    Attributes:
        grid_gbps: Bandwidth grid in GB/s.
        cdf: Fraction of transferred bytes at bandwidth <= grid point.
        label: Curve label for tables/plots.
    """

    grid_gbps: tuple[float, ...]
    cdf: tuple[float, ...]
    label: str = ""

    def rows(self) -> list[tuple[float, float]]:
        """(bandwidth GB/s, cumulative fraction) pairs for printing."""
        return list(zip(self.grid_gbps, self.cdf))


def bandwidth_cdf(
    trace: Trace,
    *,
    label: str = "",
    grid_gbps: Sequence[float] | None = None,
    kinds: Sequence[str] | None = None,
) -> BandwidthCDF:
    """Build the byte-weighted bandwidth CDF of a trace.

    Args:
        trace: Simulated step trace.
        label: Curve label.
        grid_gbps: Bandwidth grid in GB/s (default 0..14 in 0.5 steps, the
            paper's axis range).
        kinds: Restrict to these transfer kinds (e.g. only ``"allgather"``).
    """
    if grid_gbps is None:
        grid_gbps = np.arange(29) * 0.5
    grid = np.asarray(grid_gbps, dtype=float)
    cdf = trace.bandwidth_cdf(grid * GB, kinds=kinds)
    return BandwidthCDF(
        grid_gbps=tuple(grid.tolist()), cdf=tuple(float(v) for v in cdf), label=label
    )


def fraction_of_bytes_below(
    trace: Trace, gbps: float, *, kinds: Sequence[str] | None = None
) -> float:
    """Fraction of transferred bytes moving at bandwidth < ``gbps`` GB/s."""
    bandwidths, weights = trace.bandwidth_samples(kinds=kinds)
    if len(bandwidths) == 0:
        return 0.0
    mask = bandwidths < gbps * GB
    return float(weights[mask].sum() / weights.sum())


def fraction_of_bytes_above(
    trace: Trace, gbps: float, *, kinds: Sequence[str] | None = None
) -> float:
    """Fraction of transferred bytes moving at bandwidth > ``gbps`` GB/s."""
    bandwidths, weights = trace.bandwidth_samples(kinds=kinds)
    if len(bandwidths) == 0:
        return 0.0
    mask = bandwidths > gbps * GB
    return float(weights[mask].sum() / weights.sum())
