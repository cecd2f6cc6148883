"""Simulator bench rows: the ``repro bench sim`` producer.

Runs the discrete-event simulator over deterministic workloads and returns
rows in the :mod:`repro.perf.bench` shape:

* **corpus rows** — each check-corpus cell's (:mod:`repro.check.corpus`)
  Mobius plan simulated end to end, plus one DeepSpeed ZeRO-3 step
  (:data:`ZERO3_CELL`), whose all-to-all offload traffic puts many flows on
  each shared edge.  The fingerprint is :mod:`repro.perf.fingerprint` over
  the trace;
* **large rows** — the datacenter-scale synthetic workload
  (:mod:`repro.sim.workloads` on
  :func:`~repro.hardware.topology.large_cluster`): ~10^6 heap events at
  1024 GPUs, identified by the bit-exact columnar trace digest
  (``Trace.columnar_digest``) instead of the span-object fingerprint —
  hashing a million materialised span tuples would dominate the run.

Each row's counters are the incremental allocator's deterministic work
(:data:`GATED_COUNTERS`): events processed, reallocation flushes,
components and rounds of progressive filling, flows touched, and
edge-member entries scanned by the vector-mode flush's walk (zero on rows
that stay in scalar mode, which keeps no link index).  Fingerprints and
counters are event-sequence determined, so equal code produces equal rows
on every machine; a trace-fingerprint divergence breaks the allocator's
bit-identical equivalence contract (DESIGN.md §11).  Wall seconds and the
large rows' peak RSS are informational.  (The fault-scenario traces are
the ``chaos`` bench's rows, :mod:`repro.faults.chaos`.)
"""

from __future__ import annotations

import dataclasses
import resource
from collections.abc import Iterator
from typing import Any

from repro.baselines.deepspeed import DeepSpeedConfig, build_deepspeed_tasks
from repro.check.corpus import default_corpus
from repro.core.api import plan_mobius
from repro.core.pipeline import build_mobius_tasks
from repro.hardware.topology import Topology, large_cluster
from repro.models.costmodel import CostModel
from repro.perf.bench import Stopwatch, row
from repro.perf.fingerprint import fingerprint
from repro.sim.resources import FlowNetworkStats
from repro.sim.tasks import TaskGraphRunner, TaskTable
from repro.sim.workloads import run_cluster_workload

__all__ = ["bench_rows", "GATED_COUNTERS", "LargeCell", "LARGE_CELLS"]

#: The allocator work counters every row carries, all gated
#: (``flows_touched`` is the incremental allocator's headline number — a
#: from-scratch refill regression shows up there first).  ``member_scans``
#: counts only the vector-mode index walk, so a return to per-flow rescans
#: of shared edges shows up on the large row; the corpus rows stay in
#: scalar mode, where ``flows_touched`` and ``fill_rounds`` guard the
#: refill set and no counter measures the bitmask closure's own passes.
GATED_COUNTERS = (
    "events",
    "reallocations",
    "components_filled",
    "fill_rounds",
    "flows_touched",
    "member_scans",
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


def _corpus_rows() -> list[dict[str, Any]]:
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


@dataclasses.dataclass(frozen=True)
class LargeCell:
    """One datacenter-scale bench scenario (see :mod:`repro.sim.workloads`)."""

    name: str
    n_gpus: int
    group_size: int
    rounds: int


#: The committed large-scale workload set: 1024 GPUs in groups of four,
#: 256 upload/compute/offload rounds per GPU — ~0.78M simulator events.
LARGE_CELLS: tuple[LargeCell, ...] = (
    LargeCell(name="dc-1024x4-r256", n_gpus=1024, group_size=4, rounds=256),
)


def _large_rows(cells: tuple[LargeCell, ...] = LARGE_CELLS) -> list[dict[str, Any]]:
    rows = []
    for cell in cells:
        topology = large_cluster(cell.n_gpus, cell.group_size)
        watch = Stopwatch()
        result = run_cluster_workload(topology, rounds=cell.rounds)
        seconds = watch.seconds
        rows.append(
            row(
                cell.name,
                fingerprint=result.digest,
                counters=_work_counters(result.events_processed, result.stats),
                walls={
                    "seconds": round(seconds, 4),
                    # ru_maxrss is process-wide (KB on Linux).
                    "peak_rss_mb": (
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
                    ),
                },
            )
        )
    return rows


def bench_rows(jobs: int | None = None) -> list[dict[str, Any]]:
    """The ``sim`` bench rows; ``jobs`` is unused (rows run in-process)."""
    return _corpus_rows() + _large_rows()
