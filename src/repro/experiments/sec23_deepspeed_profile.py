"""§2.3 analysis: DeepSpeed's communication profile on a commodity server.

Verifies the two motivating measurements: communication accounts for over
70% of DeepSpeed's per-step time, and communication traffic is ~7.3x the
model size (15B model, 4x3090-Ti).
"""

from __future__ import annotations

from repro.analysis.overlap import overlap_stats
from repro.analysis.traffic import model_size_bytes
from repro.experiments.runner import ExperimentCell, ExperimentTable, run_system
from repro.hardware.topology import topo_2_2
from repro.models.zoo import gpt_15b

__all__ = ["cells", "run"]


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """One simulation cell — identical to Figure 2's, so it dedups away."""
    return (
        ExperimentCell(
            system="deepspeed", model=gpt_15b(), topology=topo_2_2(), microbatch_size=1
        ),
    )


def run(fast: bool = False) -> ExperimentTable:
    """Regenerate the §2.3 DeepSpeed profile.

    ``fast`` changes nothing: the profile is one cell either way.
    """
    model = gpt_15b()
    result = run_system("deepspeed", model, topo_2_2(), microbatch_size=1)
    assert result.trace is not None
    stats = overlap_stats(result.trace)
    traffic_x = result.trace.total_transfer_bytes() / model_size_bytes(model)
    table = ExperimentTable(
        title="Sec 2.3: DeepSpeed profile (15B, 4x3090-Ti, Topo 2+2)",
        columns=("metric", "measured", "paper"),
    )
    table.add_row("comm fraction of step", f"{stats.comm_fraction:.2f}", ">= 0.70")
    table.add_row(
        "non-overlapped comm fraction", f"{stats.non_overlapped_fraction:.2f}", "~0.7-0.8"
    )
    table.add_row("traffic / model size", f"{traffic_x:.1f}x", "7.3x")
    return table
