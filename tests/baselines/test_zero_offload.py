"""Tests for the ZeRO-Offload baseline (§5 related work)."""

import pytest

from repro.baselines.gpipe import OutOfMemoryError, run_gpipe
from repro.baselines.zero_offload import run_zero_offload
from repro.hardware.topology import topo_2_2
from repro.models.spec import FP16_BYTES
from repro.models.zoo import gpt_3b, gpt_8b, gpt_15b
from tests.helpers import compute_seconds


class TestMemoryBoundary:
    def test_3b_fits(self):
        report = run_zero_offload(gpt_3b(), topo_2_2(), microbatch_size=1)
        assert report.step_seconds > 0

    def test_8b_oom(self):
        """§5: model scale limited by a *single* GPU (8B replica = 32 GB)."""
        with pytest.raises(OutOfMemoryError, match="replica"):
            run_zero_offload(gpt_8b(), topo_2_2(), microbatch_size=1)

    def test_15b_oom(self):
        with pytest.raises(OutOfMemoryError):
            run_zero_offload(gpt_15b(), topo_2_2(), microbatch_size=1)


class TestBehaviour:
    def test_less_traffic_than_zero3(self, tiny_model):
        """ZeRO-Offload's whole point: no parameter gathers, only grads."""
        from repro.baselines.deepspeed import DeepSpeedConfig, run_deepspeed

        topology = topo_2_2()
        offload = run_zero_offload(tiny_model, topology, microbatch_size=1)
        zero3 = run_deepspeed(
            tiny_model, topology, DeepSpeedConfig(microbatch_size=1)
        )
        assert offload.trace.total_transfer_bytes() < 0.5 * zero3.trace.total_transfer_bytes()

    def test_gradient_traffic_accounting(self, tiny_model, topo22):
        report = run_zero_offload(tiny_model, topo22, microbatch_size=1)
        fp16 = tiny_model.param_bytes(FP16_BYTES)
        n = topo22.n_gpus
        # Ring hops: N*(N-1) shards of P/N; offload: N shards of P/N.
        expected = fp16 * (n - 1) + fp16
        assert report.trace.total_transfer_bytes() == pytest.approx(expected, rel=1e-6)

    def test_compute_matches_data_parallel(self, tiny_model, topo22):
        report = run_zero_offload(tiny_model, topo22, microbatch_size=1)
        from repro.models.costmodel import CostModel
        from repro.hardware.gpu import RTX_3090TI

        cm = CostModel(RTX_3090TI, 1)
        per_gpu = sum(
            cm.layer_cost(l).fwd_seconds + cm.layer_cost(l).bwd_seconds
            for l in tiny_model.layers
        )
        assert compute_seconds(report.trace, 0) == pytest.approx(per_gpu, rel=1e-9)

    def test_faster_than_zero3_on_fitting_models(self, tiny_model, topo22):
        from repro.baselines.deepspeed import DeepSpeedConfig, run_deepspeed

        offload = run_zero_offload(tiny_model, topo22, microbatch_size=1)
        zero3 = run_deepspeed(tiny_model, topo22, DeepSpeedConfig(microbatch_size=1))
        assert offload.step_seconds < zero3.step_seconds
