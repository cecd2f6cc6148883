"""Figure 12: Mobius's planning overheads.

Profiling time (with layer-similarity compression) and the work of the MIP
partition search and the cross-mapping search for the 8B / 15B / 51B models
on Topo 1+3.  Expected shapes: 8B and 15B profile in similar time (similar
hidden dims — layer similarity makes profiling scale with *unique* layers);
the MIP search explores more nodes when more layers fit per GPU (larger
search space).  ``profiling`` is the profiler's simulated seconds;
``nodes`` counts branch-and-bound nodes, ``schemes`` the mapping schemes
scored, ``stages`` the chosen plan's stage count, and ``gap`` the partition
search's certified relative optimality gap (0 when it exhausted).

The table holds no wall reading, so its text is a function of the cells
alone.  The figure's planning wall is the suite timing report's
``fig12_overhead`` row, measured by the run that prints it.
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
        title="Figure 12: planning overhead",
        columns=(
            "model",
            "profiling",
            "nodes",
            "schemes",
            "stages",
            "gap",
            "unique_layers",
        ),
    )
    for model_factory in models:
        model = model_factory()
        report = _cell(model).run().extras["plan_report"]
        table.add_row(
            model.name,
            report.profile_report.profiling_seconds,
            report.partition_result.nodes_explored,
            report.mapping_result.schemes_evaluated,
            report.plan.n_stages,
            report.partition_result.gap,
            report.profile_report.n_unique_layers,
        )
    table.notes.append("paper: overheads are negligible vs hours-to-days of fine-tuning")
    table.notes.append("paper: 8B and 15B have close profiling times (layer similarity)")
    table.notes.append(
        "planning wall: the suite timing report's fig12_overhead row "
        "(its cache_hits show a warm run served the plans from the cache)"
    )
    return table
