"""Every checker over every corpus cell: no finding.

Each cell is planned, mapped and simulated once; the plan must satisfy
the Eqs. 4, 5 and 11 memory constraints, the mapping must reach the exact
Eq. 13 optimum, and the run must pass the causality and duration checks.
"""

from __future__ import annotations

import pytest

from repro.check.corpus import default_corpus
from repro.check.mapping_check import check_mapping
from repro.check.plan_check import check_plan
from repro.check.trace_check import sanitize_run
from repro.core.api import plan_mobius
from repro.core.pipeline import build_mobius_tasks
from repro.sim.tasks import TaskGraphRunner
from tests.helpers import evaluate_costs


def test_default_corpus_has_at_least_four_cells():
    cells = default_corpus()
    assert len(cells) >= 4
    assert len({cell.name for cell in cells}) == len(cells)
    # The corpus must exercise more than one topology and model.
    assert len({cell.topology.name for cell in cells}) >= 3
    assert len({cell.model.name for cell in cells}) >= 2


@pytest.mark.parametrize("cell", default_corpus(), ids=lambda cell: cell.name)
def test_cell_has_no_findings(cell):
    report = plan_mobius(cell.model, cell.topology, cell.config)
    plan, cost_model = report.plan, report.cost_model
    stage_costs = plan.partition.stage_costs(cost_model)

    findings = check_plan(plan, cost_model)
    findings.extend(check_mapping(plan.mapping, cell.topology, plan.n_stages))
    tasks = build_mobius_tasks(
        plan,
        cell.topology,
        stage_costs,
        prefetch=cell.config.prefetch,
        use_priorities=cell.config.use_priorities,
    )
    runner = TaskGraphRunner(cell.topology)
    runner.execute(tasks)
    findings.extend(sanitize_run(tasks, runner.last_times))
    assert not findings.findings, findings.render()

    # The search's incremental scoring agrees bit for bit with the full
    # Eq. 3 evaluation of the stage costs the plan itself reports.
    bandwidth = cell.config.bandwidth or cell.topology.pcie_bandwidth
    timings = evaluate_costs(
        stage_costs,
        plan.n_gpus,
        plan.n_microbatches,
        bandwidth,
        cost_model.usable_gpu_bytes(),
    )
    assert plan.estimated_step_seconds == timings.step_seconds
