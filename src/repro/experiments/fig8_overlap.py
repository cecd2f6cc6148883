"""Figure 8: proportion of non-overlapped communication time.

For the 15B and 51B models across the three topologies: the fraction of
per-step time each system spends communicating without concurrent
computation.  Expected shapes: DeepSpeed ~0.7-0.9; Mobius substantially
lower (the paper reports reductions up to 46%), with the best overlap on
Topo 2+2 where cross mapping has the most freedom.
"""

from __future__ import annotations

from repro.analysis.overlap import overlap_stats
from repro.experiments.runner import ExperimentCell, ExperimentTable, run_system
from repro.hardware.topology import topo_1_3, topo_2_2, topo_4
from repro.models.zoo import gpt_15b, gpt_51b

__all__ = ["cells", "run"]


def _models(fast: bool):
    return [gpt_15b] if fast else [gpt_15b, gpt_51b]


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """A strict subset of Figure 7's grid — dedups to zero extra work."""
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
    """Regenerate Figure 8."""
    models = _models(fast)
    table = ExperimentTable(
        title="Figure 8: non-overlapped communication proportion",
        columns=("model", "topology", "deepspeed", "mobius", "reduction"),
    )
    for model_factory in models:
        model = model_factory()
        for topo_factory in (topo_2_2, topo_1_3, topo_4):
            topology = topo_factory()
            fractions = {}
            for system in ("deepspeed", "mobius"):
                result = run_system(system, model, topology, microbatch_size=1)
                assert result.trace is not None
                fractions[system] = overlap_stats(result.trace).non_overlapped_fraction
            table.add_row(
                model.name,
                topology.name,
                fractions["deepspeed"],
                fractions["mobius"],
                f"{fractions['deepspeed'] - fractions['mobius']:.2f}",
            )
    table.notes.append("paper: Mobius reduces the proportion by up to 46%")
    return table
