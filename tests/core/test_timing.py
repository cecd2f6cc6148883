"""Tests for the analytic pipeline-timing recurrence (Eqs. 4-11)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timing import prefetch_budgets
from repro.hardware.gpu import RTX_3090TI
from repro.models.costmodel import CostModel
from repro.models.spec import build_gpt_like
from tests.helpers import evaluate_costs, mem_peak, stage_records

BW = 13.1e9
BIG_MEMORY = 1 << 62


@pytest.fixture
def stage_costs():
    model = build_gpt_like("m", n_blocks=8, hidden_dim=512, n_heads=8)
    cm = CostModel(RTX_3090TI, 2)
    return cm.stage_costs_for_partition(model, [3, 5, 8])


class TestBasicProperties:
    def test_gpipe_case_matches_hand_computation(self):
        """With S == N, huge memory and no uploads, the recurrence is plain
        GPipe; verify against the closed form for equal stages."""
        model = build_gpt_like("m", n_blocks=8, hidden_dim=512, n_heads=8, include_embedding=False)
        cm = CostModel(RTX_3090TI, 1)
        costs = cm.stage_costs_for_partition(model, [3, 5, 8])[0:1] * 1
        # Use 4 identical single-block stages instead.
        costs = [cm.stage_cost(model, i, i + 1) for i in range(4)]
        m = 4
        timings = evaluate_costs(
            costs, 4, m, BW, BIG_MEMORY, include_initial_upload=False
        )
        tf = costs[0].fwd_seconds
        tb = costs[0].bwd_seconds
        act = costs[0].output_activation_bytes / BW
        # Forward of last stage, last microbatch: (S-1) pipeline fills +
        # M serial microbatches.
        expected_fwd_end = 3 * (tf + act) + m * tf
        assert timings.t_fwd[3][m - 1] + tf == pytest.approx(expected_fwd_end)
        # Backward mirrors forward.
        expected_step = expected_fwd_end + 3 * (tb + act) + m * tb
        assert timings.step_seconds == pytest.approx(expected_step)

    def test_step_is_positive_and_finite(self, stage_costs):
        timings = evaluate_costs(stage_costs, 2, 2, BW, BIG_MEMORY)
        assert timings.feasible
        assert 0 < timings.step_seconds < math.inf

    def test_infeasible_when_stage_exceeds_memory(self, stage_costs):
        tiny = stage_costs[0].mem_bwd(2) // 2
        timings = evaluate_costs(stage_costs, 2, 2, BW, tiny)
        assert not timings.feasible
        assert timings.step_seconds == math.inf
        assert "exceeds" in timings.infeasible_reason

    def test_empty_stage_list(self):
        timings = evaluate_costs([], 2, 2, BW, BIG_MEMORY)
        assert not timings.feasible

    def test_invalid_parameters_rejected(self, stage_costs):
        with pytest.raises(ValueError):
            evaluate_costs(stage_costs, 0, 2, BW, BIG_MEMORY)
        with pytest.raises(ValueError):
            evaluate_costs(stage_costs, 2, 2, -1.0, BIG_MEMORY)

    def test_more_bandwidth_never_slower(self, stage_costs):
        slow = evaluate_costs(stage_costs, 2, 2, BW / 4, BIG_MEMORY)
        fast = evaluate_costs(stage_costs, 2, 2, BW, BIG_MEMORY)
        assert fast.step_seconds <= slow.step_seconds + 1e-12

    def test_initial_upload_toggle(self, stage_costs):
        with_upload = evaluate_costs(stage_costs, 2, 2, BW, BIG_MEMORY)
        without = evaluate_costs(
            stage_costs, 2, 2, BW, BIG_MEMORY, include_initial_upload=False
        )
        assert without.step_seconds <= with_upload.step_seconds

    def test_forward_starts_are_monotone(self, stage_costs):
        timings = evaluate_costs(stage_costs, 2, 2, BW, BIG_MEMORY)
        for row in timings.t_fwd:
            assert all(a <= b for a, b in zip(row, row[1:]))
        firsts = [row[0] for row in timings.t_fwd]
        assert all(a <= b for a, b in zip(firsts, firsts[1:]))

    def test_backward_after_forward(self, stage_costs):
        timings = evaluate_costs(stage_costs, 2, 2, BW, BIG_MEMORY)
        last = len(stage_costs) - 1
        fwd_end = timings.t_fwd[last][-1] + stage_costs[last].fwd_seconds
        assert timings.t_bwd[last][0] >= fwd_end - 1e-12


class TestPrefetchBudgets:
    def test_first_stages_fully_prefetched(self, stage_costs):
        fwd, _ = prefetch_budgets(stage_records(stage_costs, 2, BW, BIG_MEMORY), 2, BIG_MEMORY)
        assert fwd[0] == stage_costs[0].param_bytes
        assert fwd[1] == stage_costs[1].param_bytes

    def test_budget_bounded_by_free_memory(self, stage_costs):
        gpu_memory = stage_costs[0].mem_fwd(2) + 1000
        fwd, _ = prefetch_budgets(stage_records(stage_costs, 2, BW, gpu_memory), 2, gpu_memory)
        assert fwd[2] <= 1000

    def test_budget_never_negative(self, stage_costs):
        gpu_memory = stage_costs[0].mem_fwd(2)  # exactly full
        fwd, bwd = prefetch_budgets(stage_records(stage_costs, 2, BW, gpu_memory), 2, gpu_memory)
        assert all(b >= 0 for b in fwd + bwd)

    def test_resident_tail_has_no_bwd_budget(self, stage_costs):
        _, bwd = prefetch_budgets(stage_records(stage_costs, 2, BW, BIG_MEMORY), 2, BIG_MEMORY)
        # Top N stages (here the last two of three) stay resident.
        assert bwd[-1] == 0 and bwd[-2] == 0

    def test_zero_memory_headroom_forces_sync_upload(self, stage_costs):
        gpu_memory = max(mem_peak(c, 2) for c in stage_costs)
        timings_lo = evaluate_costs(stage_costs, 2, 2, BW, gpu_memory)
        timings_hi = evaluate_costs(stage_costs, 2, 2, BW, BIG_MEMORY)
        assert timings_hi.step_seconds <= timings_lo.step_seconds + 1e-12


@settings(max_examples=20, deadline=None)
@given(
    n_gpus=st.integers(min_value=1, max_value=4),
    n_microbatches=st.integers(min_value=1, max_value=6),
)
def test_step_lower_bounded_by_compute(n_gpus, n_microbatches):
    """Property: step time >= per-GPU compute and >= critical path of the
    last microbatch."""
    model = build_gpt_like("m", n_blocks=6, hidden_dim=256, n_heads=4)
    cm = CostModel(RTX_3090TI, 1)
    costs = [cm.stage_cost(model, i, i + 1) for i in range(model.n_layers)]
    timings = evaluate_costs(costs, n_gpus, n_microbatches, BW, BIG_MEMORY)
    assert timings.feasible
    total = sum((c.fwd_seconds + c.bwd_seconds) * n_microbatches for c in costs)
    assert timings.step_seconds >= total / n_gpus - 1e-12
    critical = sum(c.fwd_seconds + c.bwd_seconds for c in costs)
    assert timings.step_seconds >= critical - 1e-12
