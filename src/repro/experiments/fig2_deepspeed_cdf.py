"""Figure 2: DeepSpeed's GPU communication bandwidth CDF.

Fine-tuning the 15B model on a 4x3090-Ti server where every two GPUs share
a CPU root complex (Topo 2+2).  The paper's observation: most of
DeepSpeed's data moves at no more than ~50% of the root complex's maximum
bandwidth because concurrent all-to-all transfers contend.
"""

from __future__ import annotations

from repro.analysis.bandwidth import bandwidth_cdf, fraction_of_bytes_below
from repro.experiments.runner import ExperimentCell, ExperimentTable, run_system
from repro.hardware.topology import PCIE_EFFECTIVE_BW, topo_2_2
from repro.models.zoo import gpt_15b

__all__ = ["cells", "run"]


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """The one simulation cell behind this figure (same cell as §2.3)."""
    return (
        ExperimentCell(
            system="deepspeed", model=gpt_15b(), topology=topo_2_2(), microbatch_size=1
        ),
    )


def run(fast: bool = False) -> ExperimentTable:
    """Regenerate Figure 2 (CDF sampled at 1 GB/s resolution).

    ``fast`` changes nothing: the figure is one cell either way.
    """
    topology = topo_2_2()
    result = run_system("deepspeed", gpt_15b(), topology, microbatch_size=1)
    assert result.trace is not None
    cdf = bandwidth_cdf(result.trace, label="DeepSpeed", grid_gbps=range(0, 15))
    table = ExperimentTable(
        title="Figure 2: DeepSpeed bandwidth CDF (15B model, 4x3090-Ti, Topo 2+2)",
        columns=("bandwidth_gbps", "cdf"),
    )
    for gbps, value in cdf.rows():
        table.add_row(gbps, value)
    half_max = PCIE_EFFECTIVE_BW / 2 / 1e9
    table.notes.append(
        f"fraction of bytes below half the max bandwidth ({half_max:.1f} GB/s): "
        f"{fraction_of_bytes_below(result.trace, half_max):.2f} "
        "(paper: most data at <= 50% of the root complex maximum)"
    )
    return table
