"""A small model x topology corpus every checker runs over.

``repro check`` needs concrete planner output to verify; this module fixes a
deterministic set of cells — GPT-like models crossed with the paper's
commodity-server topologies — small enough for CI yet exercising the planner
paths that matter: multi-root-complex servers (cross mapping), asymmetric
PCIe trees, and more stages than GPUs (prefetch budgets on every wave).

For each cell the full planning pipeline runs (memoized through
:mod:`repro.perf`, so repeats are cheap), then:

* :func:`~repro.check.plan_check.check_plan` replays the MIP constraints;
* :func:`~repro.check.mapping_check.check_mapping` recomputes Eq. 13 and
  compares against the exact optimum;
* the task graph is simulated once and
  :func:`~repro.check.trace_check.sanitize_run` verifies the trace.

Findings come back prefixed with the cell name, so one aggregated report
covers the whole corpus.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

from repro.check.findings import CheckReport
from repro.check.mapping_check import check_mapping
from repro.check.plan_check import check_plan
from repro.check.trace_check import sanitize_run
from repro.core.api import MobiusConfig, plan_mobius
from repro.core.pipeline import build_mobius_tasks
from repro.hardware.topology import Topology, topo_1_3, topo_2_2, topo_4
from repro.models.spec import ModelSpec, build_gpt_like
from repro.sim.tasks import TaskGraphRunner

__all__ = ["CorpusCell", "default_corpus", "check_cell", "run_corpus"]

#: Search budget per partition solve; the corpus models are small enough
#: that the boundary search exhausts well inside this.
_TIME_LIMIT = 2.0


@dataclasses.dataclass(frozen=True)
class CorpusCell:
    """One verification cell: a model planned onto a topology."""

    name: str
    model: ModelSpec
    topology: Topology
    config: MobiusConfig = MobiusConfig(partition_time_limit=_TIME_LIMIT)


def _gpt_a() -> ModelSpec:
    return build_gpt_like(
        "check-gpt-a",
        n_blocks=6,
        hidden_dim=1024,
        n_heads=8,
        default_microbatch_size=2,
    )


def _gpt_b() -> ModelSpec:
    return build_gpt_like(
        "check-gpt-b",
        n_blocks=8,
        hidden_dim=1536,
        n_heads=12,
        default_microbatch_size=1,
    )


def default_corpus() -> list[CorpusCell]:
    """The default cells: two models crossed with the paper's servers.

    Datacenter-scale coverage deliberately lives elsewhere: every corpus
    cell also feeds the literal Eq. 3-11 partition MIP to HiGHS in the
    DFS-vs-HiGHS parity test, so cells must stay small enough for a dense
    MILP cross-check at every stage count.  The 1024-GPU regime is
    exercised by the simulator bench's ``large`` section
    (:mod:`repro.sim.workloads`), which simulates a synthetic task graph
    without planning it.
    """
    gpt_a = _gpt_a()
    gpt_b = _gpt_b()
    return [
        CorpusCell("gpt-a/topo_2_2", gpt_a, topo_2_2()),
        CorpusCell("gpt-a/topo_4", gpt_a, topo_4()),
        CorpusCell("gpt-a/topo_1_3", gpt_a, topo_1_3()),
        CorpusCell("gpt-b/topo_2_2", gpt_b, topo_2_2()),
    ]


def check_cell(cell: CorpusCell) -> CheckReport:
    """Plan, map and simulate one cell, running every dynamic checker."""
    plan_report = plan_mobius(cell.model, cell.topology, cell.config)
    plan = plan_report.plan
    cost_model = plan_report.cost_model

    bandwidth = (
        cell.config.bandwidth
        if cell.config.bandwidth is not None
        else cell.topology.pcie_bandwidth
    )

    report = CheckReport()
    report.extend(
        check_plan(plan, cell.topology, cost_model, bandwidth=bandwidth)
    )
    report.extend(check_mapping(plan.mapping, cell.topology, plan.n_stages))

    stage_costs = plan.partition.stage_costs(cost_model)
    tasks = build_mobius_tasks(
        plan,
        cell.topology,
        stage_costs,
        prefetch=cell.config.prefetch,
        use_priorities=cell.config.use_priorities,
    )
    runner = TaskGraphRunner(cell.topology)
    trace = runner.execute(tasks)
    report.extend(sanitize_run(tasks, trace, cell.topology))

    return report.prefixed(cell.name)


def run_corpus(
    cells: Sequence[CorpusCell] | None = None,
    *,
    progress: Callable[[str], None] | None = None,
) -> CheckReport:
    """Run every dynamic checker over ``cells`` (default corpus when None).

    Args:
        cells: Corpus cells to verify.
        progress: Optional per-cell callback (the CLI prints cell names).
    """
    report = CheckReport()
    for cell in cells if cells is not None else default_corpus():
        if progress is not None:
            progress(cell.name)
        report.extend(check_cell(cell))
    return report
