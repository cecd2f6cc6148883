"""Simulator benchmark: the ``repro simbench`` backend.

Runs the discrete-event simulator over deterministic workloads derived
from the check corpus (:mod:`repro.check.corpus`) and emits
``BENCH_sim.json``:

* **corpus rows** — each cell's Mobius plan simulated end to end, with the
  trace fingerprint (:mod:`repro.perf.fingerprint` over the columnar trace
  views) and the incremental allocator's deterministic work counters:
  events processed, reallocation flushes, components and rounds of
  progressive filling, flows touched, edge-member entries scanned by the
  flush's walk, flows touched per reallocation and reallocations per
  event; plus one DeepSpeed ZeRO-3 step (:data:`ZERO3_CELL`), whose
  all-to-all offload traffic puts many flows on each shared edge;
* **chaos rows** — every fault scenario of :mod:`repro.faults.chaos` per
  cell (including windowed ``set_bandwidth_scale`` epochs and dropout
  re-plans), fingerprinted the same way;
* **large rows** — the datacenter-scale synthetic workload
  (:mod:`repro.sim.workloads` on
  :func:`~repro.hardware.topology.large_cluster`): ~10^6 heap events at
  1024 GPUs, identified by the bit-exact columnar trace digest
  (``Trace.columnar_digest``) instead of the span-object fingerprint —
  hashing a million materialised span tuples would dominate the run.

Fingerprints and counters are event-sequence determined — no wall-clock
input — so equal code produces equal documents across machines.  Wall
seconds (and the large rows' peak RSS) are recorded for context but never
compared.  The CI gate (:func:`compare_benchmarks`) fails on any
trace-fingerprint divergence (the allocator's bit-identical equivalence
contract, DESIGN.md §11) or a >25% regression in allocator work counters
against the committed baseline.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import time
from collections.abc import Iterator
from pathlib import Path
from typing import Any

from repro.check.corpus import default_corpus
from repro.core.api import plan_mobius
from repro.core.partition import PlanInfeasibleError
from repro.baselines.deepspeed import DeepSpeedConfig, build_deepspeed_tasks
from repro.core.pipeline import build_mobius_tasks
from repro.faults.chaos import SCENARIOS, build_schedule
from repro.faults.models import FaultSchedule
from repro.faults.recovery import run_step
from repro.faults.replan import replan_after_dropout
from repro.hardware.topology import Topology, large_cluster
from repro.models.costmodel import CostModel
from repro.perf.fingerprint import fingerprint
from repro.sim.resources import FlowNetworkStats
from repro.sim.tasks import Task, TaskGraphRunner
from repro.sim.workloads import run_cluster_workload

__all__ = [
    "run_bench",
    "write_bench",
    "compare_benchmarks",
    "BENCH_SCHEMA",
    "LargeCell",
    "LARGE_CELLS",
]

# v2: adds the "large" section (datacenter-scale synthetic rows).
BENCH_SCHEMA = "mobius-bench-sim/2"

#: Allocator work-counter regressions beyond this ratio fail the CI gate.
WORK_REGRESSION_RATIO = 1.25

#: Counters gated by :func:`compare_benchmarks` (all integers, all
#: deterministic; ``flows_touched`` is the incremental allocator's headline
#: number — a from-scratch refill regression shows up there first, and a
#: return to per-flow rescans of shared edges shows up in ``member_scans``).
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


def _work_counters(events: int, stats: FlowNetworkStats) -> dict[str, Any]:
    """A row's allocator work counters, plus two informational ratios.

    ``flows_touched_per_reallocation`` shows incrementality and
    ``reallocations_per_event`` shows per-timestamp batching; neither
    ratio is gated.
    """
    reallocations = stats.reallocations
    return {
        "events": events,
        "reallocations": reallocations,
        "components_filled": stats.components_filled,
        "fill_rounds": stats.fill_rounds,
        "flows_touched": stats.flows_touched,
        "member_scans": stats.member_scans,
        "flows_touched_per_reallocation": (
            round(stats.flows_touched / reallocations, 3) if reallocations else 0.0
        ),
        "reallocations_per_event": (
            round(reallocations / events, 3) if events else 0.0
        ),
    }


def _corpus_task_graphs() -> Iterator[tuple[str, Topology, list[Task]]]:
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


def _run_corpus_rows() -> list[dict[str, Any]]:
    rows = []
    for name, topology, tasks in _corpus_task_graphs():
        runner = TaskGraphRunner(topology)
        started = time.perf_counter()
        trace = runner.execute(tasks)
        wall = time.perf_counter() - started
        rows.append(
            {
                "name": name,
                "fingerprint": fingerprint(trace),
                **_work_counters(runner.sim.events_processed, runner.network.stats),
                "wall_seconds": round(wall, 4),
            }
        )
    return rows


def _run_chaos_rows() -> list[dict[str, Any]]:
    rows = []
    for cell in default_corpus():
        report = plan_mobius(cell.model, cell.topology, cell.config)
        clean = run_step(
            report.plan,
            cell.topology,
            report.cost_model,
            FaultSchedule(0),
            prefetch=cell.config.prefetch,
            use_priorities=cell.config.use_priorities,
        )
        for scenario in SCENARIOS:
            schedule = build_schedule(scenario, cell, 0, clean.step_seconds, report.plan)
            started = time.perf_counter()
            if schedule.dropouts:
                try:
                    replanned = replan_after_dropout(
                        cell.model,
                        cell.topology,
                        cell.config,
                        schedule.dropouts[0].gpu,
                        old_plan_report=report,
                    )
                except PlanInfeasibleError:
                    rows.append(
                        {
                            "name": f"{cell.name}/{scenario}",
                            "fingerprint": None,
                            "status": "infeasible",
                            "wall_seconds": 0.0,
                        }
                    )
                    continue
                new_report = replanned.plan_report
                step = run_step(
                    new_report.plan,
                    replanned.topology,
                    new_report.cost_model,
                    schedule.without_dropouts(),
                    prefetch=cell.config.prefetch,
                    use_priorities=cell.config.use_priorities,
                )
            else:
                step = run_step(
                    report.plan,
                    cell.topology,
                    report.cost_model,
                    schedule,
                    prefetch=cell.config.prefetch,
                    use_priorities=cell.config.use_priorities,
                )
            wall = time.perf_counter() - started
            rows.append(
                {
                    "name": f"{cell.name}/{scenario}",
                    "fingerprint": fingerprint(step.trace),
                    "status": "ok",
                    "wall_seconds": round(wall, 4),
                }
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
#: 256 upload/compute/offload rounds per GPU — ~1.04M simulator events.
LARGE_CELLS: tuple[LargeCell, ...] = (
    LargeCell(name="dc-1024x4-r256", n_gpus=1024, group_size=4, rounds=256),
)


def _run_large_rows(
    cells: tuple[LargeCell, ...] = LARGE_CELLS,
) -> list[dict[str, Any]]:
    rows = []
    for cell in cells:
        topology = large_cluster(cell.n_gpus, cell.group_size)
        started = time.perf_counter()
        result = run_cluster_workload(topology, rounds=cell.rounds)
        wall = time.perf_counter() - started
        # ru_maxrss is process-wide (KB on Linux) — informational only,
        # like wall seconds; the gate never compares it.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
        rows.append(
            {
                "name": cell.name,
                "fingerprint": result.digest,
                "n_tasks": result.n_tasks,
                **_work_counters(result.events_processed, result.stats),
                "wall_seconds": round(wall, 4),
                "peak_rss_mb": peak_rss_mb,
            }
        )
    return rows


def run_bench() -> dict[str, Any]:
    """Run the full simulator benchmark; returns the JSON document."""
    return {
        "schema": BENCH_SCHEMA,
        "corpus": _run_corpus_rows(),
        "chaos": _run_chaos_rows(),
        "large": _run_large_rows(),
    }


def write_bench(path: Path | str, document: dict[str, Any] | None = None) -> dict:
    """Run (if needed) and write the benchmark JSON to ``path``."""
    document = document if document is not None else run_bench()
    Path(path).write_text(json.dumps(document, indent=1, sort_keys=False) + "\n")
    return document


def compare_benchmarks(
    current: dict[str, Any], baseline: dict[str, Any]
) -> list[str]:
    """CI gate: regressions of ``current`` against the committed baseline.

    Returns a list of human-readable failures (empty = gate passes):

    * a trace fingerprint differs from the baseline — the allocator's
      bit-identical equivalence contract is broken;
    * an allocator work counter (:data:`GATED_COUNTERS`) grew beyond
      :data:`WORK_REGRESSION_RATIO` times the baseline — the incremental
      reallocation degraded toward from-scratch refills.

    Rows present only on one side are failures too — the workload set is
    part of the contract.  Wall times and peak RSS are never compared.
    """
    failures: list[str] = []
    for section in ("corpus", "chaos", "large"):
        base_rows = {row["name"]: row for row in baseline.get(section, [])}
        cur_rows = {row["name"]: row for row in current.get(section, [])}
        for name in sorted(base_rows.keys() | cur_rows.keys()):
            if name not in cur_rows:
                failures.append(f"{section}:{name}: row missing from current run")
                continue
            if name not in base_rows:
                failures.append(f"{section}:{name}: row missing from baseline")
                continue
            base, cur = base_rows[name], cur_rows[name]
            if cur.get("fingerprint") != base.get("fingerprint"):
                failures.append(
                    f"{section}:{name}: trace fingerprint diverged "
                    f"({base.get('fingerprint')} -> {cur.get('fingerprint')})"
                )
            for counter in GATED_COUNTERS:
                if counter not in base:
                    continue
                base_count = base[counter]
                cur_count = cur.get(counter, 0)
                if base_count > 0 and cur_count > WORK_REGRESSION_RATIO * base_count:
                    failures.append(
                        f"{section}:{name}: {counter} regressed "
                        f"{base_count} -> {cur_count} "
                        f"(>{WORK_REGRESSION_RATIO:.2f}x)"
                    )
    return failures
