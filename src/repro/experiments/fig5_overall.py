"""Figure 5: per-step time of GPipe, DeepSpeed (both modes) and Mobius.

All four Table 3 models, batch size one (microbatch size 1), on the three
4-GPU topologies.  Expected shapes: GPipe / DeepSpeed-pipeline OOM beyond
the 3B model; Mobius beats DeepSpeed-with-heterogeneous-memory by roughly
3.8-5.1x; Mobius stays nearly flat across topologies while DeepSpeed
degrades with contention.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentCell, ExperimentTable, run_system
from repro.hardware.topology import topo_1_3, topo_2_2, topo_4
from repro.models.zoo import gpt_3b, gpt_8b, gpt_15b, gpt_51b

__all__ = ["cells", "run"]

TOPOLOGIES = (topo_2_2, topo_1_3, topo_4)
SYSTEMS = ("gpipe", "ds-pipeline", "deepspeed", "mobius")


def _models(fast: bool):
    return [gpt_8b, gpt_15b] if fast else [gpt_3b, gpt_8b, gpt_15b, gpt_51b]


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """Every (system, model, topology) cell of the Figure 5 grid."""
    return tuple(
        ExperimentCell(
            system=system,
            model=model_factory(),
            topology=topo_factory(),
            microbatch_size=1,
        )
        for model_factory in _models(fast)
        for topo_factory in TOPOLOGIES
        for system in SYSTEMS
    )


def run(fast: bool = False) -> ExperimentTable:
    """Regenerate Figure 5.

    Args:
        fast: Restrict to the 8B and 15B models (CI-friendly subset).
    """
    models = _models(fast)
    table = ExperimentTable(
        title="Figure 5: per-step time (seconds), batch size 1",
        columns=("model", "topology", *SYSTEMS, "ds/mobius"),
    )
    for model_factory in models:
        model = model_factory()
        for topo_factory in TOPOLOGIES:
            topology = topo_factory()
            cells = []
            results = {}
            for system in SYSTEMS:
                result = run_system(
                    system, model, topology, microbatch_size=1
                )
                results[system] = result
                cells.append(f"{result.step_seconds:.2f}" if result.ok else "OOM")
            ratio = (
                results["deepspeed"].step_seconds / results["mobius"].step_seconds
                if results["deepspeed"].ok and results["mobius"].ok
                else float("nan")
            )
            table.add_row(model.name, topology.name, *cells, f"{ratio:.1f}x")
    table.notes.append("paper: Mobius reduces per-step time by 3.8-5.1x vs DeepSpeed")
    table.notes.append("paper: GPipe and DeepSpeed-pipeline OOM beyond the 3B model")
    return table
