"""Simulator bench rows: the ``repro bench sim`` producer.

Runs the discrete-event simulator over the check corpus and returns rows
in the :mod:`repro.perf.bench` shape: each corpus cell's
(:mod:`repro.check.corpus`) Mobius plan simulated end to end, plus one
DeepSpeed ZeRO-3 step (:data:`ZERO3_CELL`), whose all-to-all offload
traffic puts many flows on each shared edge.  The fingerprint is
:mod:`repro.perf.fingerprint` over the trace.

Each row's counters are the incremental allocator's deterministic work
(:data:`GATED_COUNTERS`): events processed, reallocation flushes,
components and rounds of progressive filling, and flows touched.
Fingerprints and counters are event-sequence determined, so equal code
produces equal rows on every machine; a trace-fingerprint divergence
breaks the allocator's bit-identical equivalence contract (DESIGN.md
§11).  Wall seconds are informational.  (The fault-scenario traces are
the ``chaos`` bench's rows, :mod:`repro.faults.chaos`.)
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.baselines.deepspeed import DeepSpeedConfig, build_deepspeed_tasks
from repro.check.corpus import default_corpus
from repro.core.api import plan_mobius
from repro.core.pipeline import build_mobius_tasks
from repro.hardware.topology import Topology
from repro.models.costmodel import CostModel
from repro.perf.bench import Stopwatch, row
from repro.perf.fingerprint import fingerprint
from repro.sim.resources import FlowNetworkStats
from repro.sim.tasks import TaskGraphRunner, TaskTable

__all__ = ["bench_rows", "GATED_COUNTERS"]

#: The allocator work counters every row carries, all gated
#: (``flows_touched`` is the incremental allocator's headline number — a
#: from-scratch refill regression shows up there first).  No counter
#: measures the bitmask component search's own passes over the live flows.
GATED_COUNTERS = (
    "events",
    "reallocations",
    "components_filled",
    "fill_rounds",
    "flows_touched",
)

#: The corpus cell whose DeepSpeed ZeRO-3 step is also a corpus row: about
#: eight flows per flush share its edges, and some of its fills take more
#: than one round, which no Mobius row's do.
ZERO3_CELL = "gpt-a/topo_2_2"


def _work_counters(events: int, stats: FlowNetworkStats) -> dict[str, int]:
    return {
        "events": events,
        **{name: getattr(stats, name) for name in GATED_COUNTERS[1:]},
    }


def _corpus_task_graphs() -> Iterator[tuple[str, Topology, TaskTable]]:
    """``(row name, topology, tasks)`` for each corpus row, built lazily."""
    for cell in default_corpus():
        report = plan_mobius(cell.model, cell.topology, cell.config)
        stage_costs = report.plan.partition.stage_costs(report.cost_model)
        yield cell.name, cell.topology, build_mobius_tasks(
            report.plan,
            cell.topology,
            stage_costs,
            prefetch=cell.config.prefetch,
            use_priorities=cell.config.use_priorities,
        )
        if cell.name == ZERO3_CELL:
            config = DeepSpeedConfig()
            cost_model = CostModel(
                cell.topology.gpu_spec,
                config.microbatch_size or cell.model.default_microbatch_size,
            )
            yield f"zero3:{cell.name}", cell.topology, build_deepspeed_tasks(
                cell.model, cell.topology, cost_model, config
            )


def bench_rows(jobs: int | None = None) -> list[dict[str, Any]]:
    """The ``sim`` bench rows; ``jobs`` is unused (rows run in-process)."""
    rows = []
    for name, topology, tasks in _corpus_task_graphs():
        runner = TaskGraphRunner(topology)
        watch = Stopwatch()
        trace = runner.execute(tasks)
        seconds = watch.seconds
        rows.append(
            row(
                name,
                fingerprint=fingerprint(trace),
                counters=_work_counters(
                    runner.sim.events_processed, runner.network.stats
                ),
                walls={"seconds": round(seconds, 4)},
            )
        )
    return rows
