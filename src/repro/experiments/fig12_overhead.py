"""Figure 12: Mobius's planning overheads.

Profiling time (with layer-similarity compression), MIP solve time, and
cross-mapping search time for the 8B / 15B / 51B models on Topo 1+3.
Expected shapes: overheads are seconds (negligible against hours of fine
tuning); 8B and 15B profile in similar time (similar hidden dims — layer
similarity makes profiling scale with *unique* layers); MIP solve time
grows when more layers fit per GPU (larger search space).  ``gap`` is the
partition search's certified relative optimality gap (0 when it exhausted).
"""

from __future__ import annotations

from repro.core.api import MobiusConfig
from repro.experiments.runner import ExperimentCell, ExperimentTable
from repro.hardware.topology import topo_1_3
from repro.models.zoo import gpt_8b, gpt_15b, gpt_51b

__all__ = ["cells", "run"]


def _models(fast: bool):
    return [gpt_8b, gpt_15b] if fast else [gpt_8b, gpt_15b, gpt_51b]


def _cell(model) -> ExperimentCell:
    return ExperimentCell(
        system="mobius",
        model=model,
        topology=topo_1_3(),
        mobius_config=MobiusConfig(partition_time_limit=5.0),
        plan_only=True,
    )


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """Plan-only cells: planning overheads without a simulated step."""
    return tuple(_cell(factory()) for factory in _models(fast))


def run(fast: bool = False) -> ExperimentTable:
    """Regenerate Figure 12."""
    models = _models(fast)
    table = ExperimentTable(
        title="Figure 12: planning overhead (seconds)",
        columns=(
            "model",
            "profiling",
            "mip_solve",
            "cross_mapping",
            "nodes",
            "gap",
            "unique_layers",
        ),
    )
    for model_factory in models:
        model = model_factory()
        report = _cell(model).run().extras["plan_report"]
        table.add_row(
            model.name,
            report.profiling_seconds,
            report.mip_solve_seconds,
            report.mapping_seconds,
            report.partition_result.nodes_explored,
            report.partition_result.gap,
            report.profile_report.n_unique_layers,
        )
    table.notes.append("paper: overheads are negligible vs hours-to-days of fine-tuning")
    table.notes.append("paper: 8B and 15B have close profiling times (layer similarity)")
    return table
