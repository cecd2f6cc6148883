"""Tests for the ExecutionPlan constraint replay (repro.check.plan_check)."""

from __future__ import annotations

import dataclasses

from repro.check.plan_check import check_plan


def _codes(report):
    return {f.code for f in report}


class TestCleanPlans:
    def test_planner_output_passes(self, planned_tiny):
        report, _ = planned_tiny
        result = check_plan(report.plan, report.cost_model)
        assert result.ok, result.render()

    def test_max_stage_plan_passes(self, planned_tiny_many_stages):
        report, _ = planned_tiny_many_stages
        plan = report.plan
        assert plan.n_stages > plan.n_gpus  # the Eq. 5 constraints are live
        result = check_plan(plan, report.cost_model)
        assert result.ok, result.render()


class TestSeededViolations:
    def test_oversized_prefetch_budget(self, planned_tiny):
        report, _ = planned_tiny
        plan = report.plan
        budgets = list(plan.prefetch_fwd_bytes)
        budgets[-1] = int(report.cost_model.usable_gpu_bytes() * 2)
        bad = dataclasses.replace(plan, prefetch_fwd_bytes=tuple(budgets))
        result = check_plan(bad, report.cost_model)
        assert "PLAN-PF-RANGE" in _codes(result)

    def test_negative_prefetch_budget(self, planned_tiny):
        report, _ = planned_tiny
        plan = report.plan
        budgets = list(plan.prefetch_fwd_bytes)
        budgets[0] = -1
        bad = dataclasses.replace(plan, prefetch_fwd_bytes=tuple(budgets))
        result = check_plan(bad, report.cost_model)
        finding = next(f for f in result if f.code == "PLAN-PF-RANGE")
        assert finding.slack == -1

    def test_prefetch_overflows_reservation(self, planned_tiny_many_stages):
        """Eq. 5: a backward budget one byte past the room left beside the
        backward footprint of the stage running on the same GPU."""
        report, _ = planned_tiny_many_stages
        plan = report.plan
        n, s = plan.n_gpus, plan.n_stages
        costs = plan.partition.stage_costs(report.cost_model)
        gpu_memory = report.cost_model.usable_gpu_bytes()

        assert s > n
        j = 0  # swapped out: its backward upload overlaps stage j+N's backward
        room = gpu_memory - costs[j + n].mem_bwd(plan.n_microbatches)
        budgets = list(plan.prefetch_bwd_bytes)
        budgets[j] = int(room) + 1

        bad = dataclasses.replace(plan, prefetch_bwd_bytes=tuple(budgets))
        result = check_plan(bad, report.cost_model)
        assert "PLAN-EQ5-BWD" in _codes(result)
        assert all(f.slack < 0 for f in result if f.code == "PLAN-EQ5-BWD")

    def test_resident_tail_with_backward_budget(self, planned_tiny):
        report, _ = planned_tiny
        plan = report.plan
        budgets = list(plan.prefetch_bwd_bytes)
        budgets[-1] = 1024  # the last stage is always in the resident tail
        bad = dataclasses.replace(plan, prefetch_bwd_bytes=tuple(budgets))
        result = check_plan(bad, report.cost_model)
        assert "PLAN-RESIDENT" in _codes(result)


class TestReportShape:
    def test_findings_name_offending_stage(self, planned_tiny):
        report, _ = planned_tiny
        plan = report.plan
        budgets = list(plan.prefetch_fwd_bytes)
        budgets[2] = -5
        bad = dataclasses.replace(plan, prefetch_fwd_bytes=tuple(budgets))
        result = check_plan(bad, report.cost_model)
        finding = next(f for f in result if f.code == "PLAN-PF-RANGE")
        assert "stage 2" in finding.subject
        assert f"gpu {plan.mapping.gpu_of_stage(2)}" in finding.subject

    def test_json_round_trip(self, planned_tiny):
        import json

        report, _ = planned_tiny
        result = check_plan(report.plan, report.cost_model)
        payload = json.loads(result.to_json())
        assert payload["ok"] is True
        assert payload["findings"] == []


def test_infeasible_replay_is_flagged(planned_tiny):
    """A plan whose stages cannot fit the GPU is flagged by Eq. 4."""
    from repro.models.costmodel import CostModel

    report, _ = planned_tiny
    tiny_gpu = dataclasses.replace(
        report.cost_model.gpu_spec, memory_bytes=64 * 2**20
    )
    shrunk = CostModel(tiny_gpu, report.cost_model.microbatch_size)
    result = check_plan(report.plan, shrunk)
    assert _codes(result) == {"PLAN-EQ4"}
    assert not result.ok
