"""Figure 4: the Mobius pipeline timeline, sequential vs cross mapping.

The paper's Figure 4 is a hand-drawn schedule diagram; this harness renders
the *simulated* equivalent as ASCII Gantt charts — forward/backward compute
per GPU with the stage-transfer boxes — for both mapping schemes (Fig. 4a
sequential, Fig. 4b cross), after a summary table quantifying the contention
difference.
"""

from __future__ import annotations

from repro.analysis.timeline import ascii_gantt
from repro.core.api import MobiusConfig
from repro.experiments.runner import ExperimentCell, ExperimentTable
from repro.hardware.topology import topo_4_4
from repro.models.zoo import gpt_15b
from repro.sim.trace import Trace

__all__ = ["cells", "run"]

MAPPINGS = ("sequential", "cross")


def _cell(mapping: str) -> ExperimentCell:
    return ExperimentCell(
        system="mobius",
        model=gpt_15b(),
        topology=topo_4_4(),
        mobius_config=MobiusConfig(
            microbatch_size=1, mapping_method=mapping, partition_time_limit=1.0
        ),
    )


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """One cell per mapping scheme."""
    return tuple(_cell(mapping) for mapping in MAPPINGS)


def _timeline(panel: str, mapping: str, trace: Trace) -> ExperimentTable:
    """One mapping's simulated timeline as a table of Gantt rows."""
    scale, *bars, legend = ascii_gantt(trace, width=110).splitlines()
    table = ExperimentTable(
        title=f"Figure 4{panel}: {mapping} mapping timeline (15B, Topo 4+4)",
        columns=("timeline",),
    )
    for bar in bars:
        table.add_row(bar)
    table.notes.extend((scale, legend))
    return table


def run(fast: bool = False) -> list[ExperimentTable]:
    """The Figure 4 summary, then one Gantt chart per mapping (Fig. 4a/4b)."""
    table = ExperimentTable(
        title="Figure 4: Mobius pipeline, sequential vs cross mapping (15B, Topo 4+4)",
        columns=("mapping", "step_s", "median_bw_GBps", "non_overlapped"),
    )
    timelines = []
    for panel, mapping in zip("ab", MAPPINGS):
        result = _cell(mapping).run()
        assert result.trace is not None
        table.add_row(
            mapping,
            result.step_seconds,
            result.trace.median_bandwidth() / 1e9,
            result.trace.non_overlapped_comm_fraction(),
        )
        timelines.append(_timeline(panel, mapping, result.trace))
    table.notes.append(
        "paper: cross mapping removes the contention of adjacent stages' "
        "prefetches sharing a CPU root complex (the red C boxes of Fig. 4a)"
    )
    return [table, *timelines]
