"""Figure 11: bandwidth CDFs under cross vs sequential mapping.

Same configurations as Figure 10; cross mapping should shift the CDF right
(more bytes transferred near the link maximum) by separating concurrent
prefetches onto different root complexes.
"""

from __future__ import annotations

from repro.analysis.bandwidth import fraction_of_bytes_above
from repro.experiments.fig10_mapping import MICROBATCH_SWEEP, _cell, _models
from repro.experiments.runner import ExperimentCell, ExperimentTable

__all__ = ["cells", "run"]


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """Exactly Figure 10's cells — the suite computes them once for both."""
    return tuple(
        _cell(model, mbs, mapping)
        for model in (factory() for factory in _models(fast))
        for mbs in MICROBATCH_SWEEP[model.name]
        for mapping in ("sequential", "cross")
    )


def run(fast: bool = False) -> ExperimentTable:
    """Regenerate Figure 11's summary statistics."""
    models = _models(fast)
    table = ExperimentTable(
        title="Figure 11: fraction of bytes above 8 GB/s, cross vs sequential",
        columns=("model", "microbatch", "sequential", "cross", "median_seq", "median_cross"),
    )
    for model_factory in models:
        model = model_factory()
        for mbs in MICROBATCH_SWEEP[model.name]:
            stats = {}
            for mapping in ("sequential", "cross"):
                result = _cell(model, mbs, mapping).run()
                assert result.trace is not None
                stats[mapping] = (
                    fraction_of_bytes_above(result.trace, 8.0),
                    result.trace.median_bandwidth() / 1e9,
                )
            table.add_row(
                model.name,
                mbs,
                stats["sequential"][0],
                stats["cross"][0],
                stats["sequential"][1],
                stats["cross"][1],
            )
    table.notes.append("paper: with cross mapping more data is transferred at higher bandwidth")
    return table
