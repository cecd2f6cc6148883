"""Figure 7: bandwidth CDFs of DeepSpeed vs Mobius across topologies.

For each model and topology, the byte-weighted CDF of transfer bandwidth in
one training step.  Expected shapes: Mobius moves more than half its bytes
above 12 GB/s (near the 13.1 GB/s ceiling), while DeepSpeed's all-to-all
traffic mostly sits below half the root complex maximum.
"""

from __future__ import annotations

from repro.analysis.bandwidth import (
    bandwidth_cdf,
    fraction_of_bytes_above,
    fraction_of_bytes_below,
)
from repro.experiments.runner import ExperimentCell, ExperimentTable, run_system
from repro.hardware.topology import topo_1_3, topo_2_2, topo_4
from repro.models.zoo import gpt_8b, gpt_15b, gpt_51b

__all__ = ["cells", "run"]


def _models(fast: bool):
    return [gpt_15b] if fast else [gpt_8b, gpt_15b, gpt_51b]


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """Every (model, topology, system) cell of the CDF grid."""
    return tuple(
        ExperimentCell(
            system=system,
            model=model_factory(),
            topology=topo_factory(),
            microbatch_size=1,
        )
        for model_factory in _models(fast)
        for topo_factory in (topo_2_2, topo_1_3, topo_4)
        for system in ("deepspeed", "mobius")
    )


def run(fast: bool = False) -> ExperimentTable:
    """Regenerate Figure 7's summary statistics (full CDFs via
    :func:`repro.analysis.bandwidth.bandwidth_cdf` on the traces)."""
    models = _models(fast)
    table = ExperimentTable(
        title="Figure 7: bandwidth CDF summary (fractions of transferred bytes)",
        columns=(
            "model",
            "topology",
            "system",
            "below_6GBps",
            "above_12GBps",
            "median_GBps",
        ),
    )
    for model_factory in models:
        model = model_factory()
        for topo_factory in (topo_2_2, topo_1_3, topo_4):
            topology = topo_factory()
            for system in ("deepspeed", "mobius"):
                result = run_system(system, model, topology, microbatch_size=1)
                assert result.trace is not None
                table.add_row(
                    model.name,
                    topology.name,
                    system,
                    fraction_of_bytes_below(result.trace, 6.0),
                    fraction_of_bytes_above(result.trace, 12.0),
                    result.trace.median_bandwidth() / 1e9,
                )
    table.notes.append(
        "paper: Mobius moves >50% of bytes above 12 GB/s; DeepSpeed mostly below 6 GB/s"
    )
    return table
