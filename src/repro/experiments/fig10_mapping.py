"""Figure 10: cross mapping vs sequential mapping.

8 GPUs with four per root complex (Topo 4+4), 8B and 15B models, sweeping
the microbatch size.  Expected shapes: cross mapping is 11-18% faster, with
the advantage shrinking as microbatches/blocks grow (computation then
dominates communication).
"""

from __future__ import annotations

from repro.core.api import MobiusConfig
from repro.experiments.runner import ExperimentCell, ExperimentTable
from repro.hardware.topology import topo_4_4
from repro.models.zoo import gpt_8b, gpt_15b

__all__ = ["cells", "run"]

MICROBATCH_SWEEP = {"GPT-8B": (2, 4, 8), "GPT-15B": (1, 2, 3)}


def _models(fast: bool):
    return [gpt_15b] if fast else [gpt_8b, gpt_15b]


def _cell(model, mbs: int, mapping: str) -> ExperimentCell:
    return ExperimentCell(
        system="mobius",
        model=model,
        topology=topo_4_4(),
        mobius_config=MobiusConfig(
            microbatch_size=mbs, mapping_method=mapping, partition_time_limit=2.0
        ),
    )


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """One cell per (model, microbatch, mapping) — identical to Figure 11's."""
    return tuple(
        _cell(model, mbs, mapping)
        for model in (factory() for factory in _models(fast))
        for mbs in MICROBATCH_SWEEP[model.name]
        for mapping in ("sequential", "cross")
    )


def run(fast: bool = False) -> ExperimentTable:
    """Regenerate Figure 10 (times normalised to sequential mapping)."""
    models = _models(fast)
    table = ExperimentTable(
        title="Figure 10: cross vs sequential mapping (8 GPUs, Topo 4+4)",
        columns=("model", "microbatch", "sequential_s", "cross_s", "cross/sequential"),
    )
    for model_factory in models:
        model = model_factory()
        for mbs in MICROBATCH_SWEEP[model.name]:
            times = {}
            for mapping in ("sequential", "cross"):
                times[mapping] = _cell(model, mbs, mapping).run().step_seconds
            table.add_row(
                model.name,
                mbs,
                times["sequential"],
                times["cross"],
                f"{times['cross'] / times['sequential']:.3f}",
            )
    table.notes.append("paper: cross mapping reduces per-step time by 11.3-18.1%")
    table.notes.append("paper: the gain shrinks as microbatches/blocks grow")
    return table
