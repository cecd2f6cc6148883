"""Tests for the analytic traffic model (Eqs. 1-2)."""

import pytest

from repro.analysis.traffic import (
    deepspeed_traffic,
    mobius_traffic,
    model_size_bytes,
)
from repro.models.spec import FP16_BYTES, FP32_BYTES, build_gpt_like
from repro.models.zoo import gpt_15b


@pytest.fixture
def model():
    return build_gpt_like("m", n_blocks=6, hidden_dim=512, n_heads=8)


class TestMobiusTraffic:
    def test_parameters_2x_fp16(self, model):
        estimate = mobius_traffic(model, 1, 4)
        assert estimate.parameters == 2 * model.param_bytes(FP16_BYTES)

    def test_gradients_1x_fp16(self, model):
        estimate = mobius_traffic(model, 1, 4)
        assert estimate.gradients == model.param_bytes(FP16_BYTES)

    def test_total_about_1_5x_model(self, model):
        estimate = mobius_traffic(model, 1, 4)
        ratio = estimate.total / model_size_bytes(model)
        assert 1.4 <= ratio <= 1.9  # Eq. 1 / Figure 6

    def test_independent_of_gpu_count(self, model):
        # Mobius traffic doesn't scale with N (only activations scale with
        # microbatch count).
        a = mobius_traffic(model, 1, 2)
        b = mobius_traffic(model, 1, 8)
        assert a.parameters == b.parameters
        assert a.gradients == b.gradients
        assert b.activations > a.activations


class TestDeepSpeedTraffic:
    def test_parameters_scale_with_n(self, model):
        four = deepspeed_traffic(model, 1, 4)
        eight = deepspeed_traffic(model, 1, 8)
        assert eight.parameters == pytest.approx(2 * four.parameters)

    def test_total_about_1_5N_model(self, model):
        estimate = deepspeed_traffic(model, 1, 4, overhead=1.0)
        ratio = estimate.total / model_size_bytes(model)
        assert 5.5 <= ratio <= 6.5  # Eq. 2 with N = 4

    def test_measured_overhead_lands_near_7_3(self, model):
        estimate = deepspeed_traffic(model, 1, 4)  # default overhead 1.22
        ratio = estimate.total / model_size_bytes(model)
        assert 6.5 <= ratio <= 7.6  # paper's measured 7.3x

    def test_ratio_ds_over_mobius_about_n(self, model):
        ds = deepspeed_traffic(model, 1, 4, overhead=1.0)
        mobius = mobius_traffic(model, 1, 4)
        assert ds.total / mobius.total == pytest.approx(4.0, rel=0.15)


class TestModelSize:
    def test_fp32_reference(self, model):
        assert model_size_bytes(model) == model.param_bytes(FP32_BYTES)

    def test_15b_reference_line(self):
        # Figure 6's red line for the 15B model sits near 52 GB.
        assert model_size_bytes(gpt_15b()) == pytest.approx(52e9, rel=0.05)
