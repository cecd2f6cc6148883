"""Tests for the analytic cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.gpu import RTX_3090TI
from repro.models.costmodel import FRAMEWORK_OVERHEAD_BYTES, CostModel
from repro.models.spec import build_gpt_like


@pytest.fixture
def model():
    return build_gpt_like("m", n_blocks=6, hidden_dim=512, n_heads=8)


@pytest.fixture
def cm():
    return CostModel(RTX_3090TI, microbatch_size=2)


class TestLayerCost:
    def test_identical_layers_share_cost(self, model, cm):
        a = cm.layer_cost(model.layers[1])
        b = cm.layer_cost(model.layers[2])
        assert a.fwd_seconds == b.fwd_seconds
        assert a.param_bytes == b.param_bytes

    def test_bwd_about_3x_fwd_with_recompute(self, model, cm):
        cost = cm.layer_cost(model.layers[1])
        assert cost.bwd_seconds == pytest.approx(3.0 * cost.fwd_seconds)

    def test_no_recompute_factor(self, model):
        cm = CostModel(RTX_3090TI, 2, recompute=False)
        cost = cm.layer_cost(model.layers[1])
        assert cost.bwd_seconds == pytest.approx(2.0 * cost.fwd_seconds)

    def test_invalid_microbatch_rejected(self):
        with pytest.raises(ValueError):
            CostModel(RTX_3090TI, 0)


class TestStageCost:
    def test_aggregates_are_sums(self, model, cm):
        whole = cm.stage_cost(model, 1, 4)
        parts = [cm.stage_cost(model, i, i + 1) for i in range(1, 4)]
        assert whole.param_bytes == sum(p.param_bytes for p in parts)
        assert whole.fwd_seconds == pytest.approx(sum(p.fwd_seconds for p in parts))
        assert whole.bwd_seconds == pytest.approx(sum(p.bwd_seconds for p in parts))

    def test_output_activation_is_last_layer(self, model, cm):
        stage = cm.stage_cost(model, 1, 4)
        last = cm.layer_cost(model.layers[3])
        assert stage.output_activation_bytes == last.activation_bytes

    def test_grads_match_params(self, model, cm):
        stage = cm.stage_cost(model, 1, 4)
        assert stage.grad_bytes == stage.param_bytes

    def test_memory_grows_with_microbatches(self, model, cm):
        stage = cm.stage_cost(model, 1, 4)
        assert stage.mem_fwd(8) > stage.mem_fwd(1)
        assert stage.mem_bwd(8) > stage.mem_bwd(1)

    def test_bwd_needs_more_than_fwd(self, model, cm):
        stage = cm.stage_cost(model, 1, 4)
        assert stage.mem_bwd(4) > stage.mem_fwd(4)

    def test_static_residency_16_bytes_per_param(self, model, cm):
        stage = cm.stage_cost(model, 1, 4)
        n_params = stage.param_bytes // 2
        assert stage.resident_bytes_static() == 16 * n_params

    def test_rolling_buffer_at_least_one_window(self, model, cm):
        stage = cm.stage_cost(model, 1, 2)
        cost = stage.layer_costs[0]
        assert stage.rolling_buffer_bytes() >= cost.activation_bytes

    def test_partition_boundaries_validated(self, model, cm):
        with pytest.raises(ValueError):
            cm.stage_costs_for_partition(model, [3, 3])
        with pytest.raises(ValueError):
            cm.stage_costs_for_partition(model, [5, 2])

    def test_partition_covers_model(self, model, cm):
        stages = cm.stage_costs_for_partition(model, [2, 5])
        assert sum(len(s.layer_costs) for s in stages) == model.n_layers

    def test_usable_gpu_bytes(self, cm):
        assert cm.usable_gpu_bytes() == RTX_3090TI.memory_bytes - FRAMEWORK_OVERHEAD_BYTES


@settings(max_examples=20, deadline=None)
@given(cut=st.integers(min_value=1, max_value=7))
def test_split_preserves_totals(cut):
    """Property: splitting a stage at any point preserves additive totals."""
    model = build_gpt_like("m", n_blocks=6, hidden_dim=256, n_heads=4)
    cm = CostModel(RTX_3090TI, 1)
    whole = cm.stage_cost(model, 0, 8)
    left = cm.stage_cost(model, 0, cut)
    right = cm.stage_cost(model, cut, 8)
    assert left.param_bytes + right.param_bytes == whole.param_bytes
    assert left.fwd_seconds + right.fwd_seconds == pytest.approx(whole.fwd_seconds)
    assert left.intra_activation_bytes + right.intra_activation_bytes == (
        whole.intra_activation_bytes
    )
