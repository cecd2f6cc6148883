"""Figure 16: GPU-CPU communication bandwidth CDF on the DC server.

On the NVLink server, inter-GPU traffic leaves the PCIe tree, so the CDF of
*GPU-to-CPU* (DRAM) transfers shows how much contention remains.  Expected
shapes: the DeepSpeed/Mobius contention gap narrows relative to the
commodity server, but Mobius still sees less contention (fewer simultaneous
stage transfers).

The (model, system) grid cells are independent; ``repro figures fig16 --jobs N``
computes them in parallel through the suite's cell scheduler.
"""

from __future__ import annotations

from repro.analysis.bandwidth import fraction_of_bytes_above
from repro.experiments.runner import ExperimentCell, ExperimentTable
from repro.hardware.topology import datacenter_server
from repro.models.zoo import gpt_8b, gpt_15b

__all__ = ["cells", "run"]

#: Transfer kinds that cross the GPU-CPU (PCIe/DRAM) boundary.
_DRAM_KINDS = (
    "param-upload",
    "act-offload",
    "act-upload",
    "grad-offload",
    "shard-restore",
)


def _models(fast: bool):
    return [gpt_8b] if fast else [gpt_8b, gpt_15b]


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """The (model, system) grid on the data-center server."""
    return tuple(
        ExperimentCell(
            system=system,
            model=model_factory(),
            topology=datacenter_server(),
            microbatch_size=2,
        )
        for model_factory in _models(fast)
        for system in ("deepspeed", "mobius")
    )


def run(fast: bool = False) -> ExperimentTable:
    """Regenerate Figure 16's summary statistics.

    Args:
        fast: Only the 8B model (the CI subset).
    """
    models = _models(fast)
    table = ExperimentTable(
        title="Figure 16: GPU-CPU bandwidth CDF summary on the DC server",
        columns=("model", "system", "median_GBps", "above_8GBps"),
    )
    topology = datacenter_server()
    grid = [
        (model_factory(), system)
        for model_factory in models
        for system in ("deepspeed", "mobius")
    ]
    cells = [
        ExperimentCell(system=system, model=model, topology=topology, microbatch_size=2)
        for model, system in grid
    ]
    results = [cell.run() for cell in cells]
    for (model, system), result in zip(grid, results):
        assert result.trace is not None
        table.add_row(
            model.name,
            system,
            result.trace.median_bandwidth(kinds=_DRAM_KINDS) / 1e9,
            fraction_of_bytes_above(result.trace, 8.0, kinds=_DRAM_KINDS),
        )
    table.notes.append(
        "paper: the DS/Mobius contention gap narrows on the DC server, "
        "but Mobius's GPU-CPU transfers still contend less"
    )
    return table
