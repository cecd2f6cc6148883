"""Tests for the DeepSpeed ZeRO-3 heterogeneous-memory baseline."""

import pytest

from repro.baselines.deepspeed import DeepSpeedConfig, run_deepspeed
from repro.hardware.topology import datacenter_server, topo_2_2, topo_4
from repro.models.spec import FP16_BYTES
from tests.helpers import compute_seconds


@pytest.fixture
def report(tiny_model, topo22):
    return run_deepspeed(tiny_model, topo22, DeepSpeedConfig(microbatch_size=1))


class TestTraffic:
    def test_gather_traffic_eq2(self, tiny_model, topo22, report):
        """Eq. 2: parameter gathers total 2 * N * P * overhead FP16 bytes."""
        gathers = report.trace.total_transfer_bytes(["allgather", "shard-restore"])
        expected = 2 * topo22.n_gpus * tiny_model.param_bytes(FP16_BYTES) * 1.22
        assert gathers == pytest.approx(expected, rel=1e-6)

    def test_gradient_traffic_eq2(self, tiny_model, topo22, report):
        """Eq. 2: gradients total N x FP16 grad bytes (reduce-scatter +
        shard offload)."""
        grads = report.trace.total_transfer_bytes(["reduce-scatter", "grad-offload"])
        expected = topo22.n_gpus * tiny_model.param_bytes(FP16_BYTES)
        assert grads == pytest.approx(expected, rel=1e-6)

    def test_total_is_about_1_5N_model_bytes(self, tiny_model, topo22, report):
        total = report.trace.total_transfer_bytes()
        model_fp32 = tiny_model.param_bytes(4)
        ratio = total / model_fp32
        assert 1.3 * topo22.n_gpus <= ratio <= 2.0 * topo22.n_gpus

    def test_traffic_grows_with_gpu_count(self, tiny_model):
        small = run_deepspeed(tiny_model, topo_2_2(), DeepSpeedConfig(microbatch_size=1))
        from repro.hardware.topology import topo_4_4

        large = run_deepspeed(tiny_model, topo_4_4(), DeepSpeedConfig(microbatch_size=1))
        assert large.trace.total_transfer_bytes() == pytest.approx(
            2 * small.trace.total_transfer_bytes(), rel=1e-6
        )


class TestContention:
    def test_worse_on_more_contended_topology(self, tiny_model):
        config = DeepSpeedConfig(microbatch_size=1)
        shared = run_deepspeed(tiny_model, topo_4(), config)
        split = run_deepspeed(tiny_model, topo_2_2(), config)
        assert shared.step_seconds > split.step_seconds

    def test_most_bytes_below_half_link_bandwidth(self, report):
        """Figure 2's observation."""
        from repro.analysis.bandwidth import fraction_of_bytes_below

        assert fraction_of_bytes_below(report.trace, 6.55) > 0.5

    def test_communication_dominates(self, report):
        """§2.3: communication >= 70% of per-step time."""
        from repro.analysis.overlap import overlap_stats

        assert overlap_stats(report.trace).comm_fraction >= 0.5

    def test_faster_on_nvlink_server(self, tiny_model):
        config = DeepSpeedConfig(microbatch_size=1)
        commodity = run_deepspeed(tiny_model, topo_2_2(), config)
        nvlink = run_deepspeed(tiny_model, datacenter_server(), config)
        assert nvlink.step_seconds < commodity.step_seconds


class TestConfig:
    def test_all_gpus_compute_equally(self, report, topo22):
        times = [compute_seconds(report.trace, g) for g in range(topo22.n_gpus)]
        assert max(times) == pytest.approx(min(times), rel=1e-9)

    def test_lockstep_toggle_runs(self, tiny_model, topo22):
        config = DeepSpeedConfig(microbatch_size=1, lockstep=False)
        result = run_deepspeed(tiny_model, topo22, config)
        assert result.step_seconds > 0

    def test_more_local_microbatches_more_compute(self, tiny_model, topo22):
        one = run_deepspeed(
            tiny_model, topo22, DeepSpeedConfig(microbatch_size=1, microbatches_per_gpu=1)
        )
        two = run_deepspeed(
            tiny_model, topo22, DeepSpeedConfig(microbatch_size=1, microbatches_per_gpu=2)
        )
        assert compute_seconds(two.trace) > compute_seconds(one.trace)

    def test_collective_latency_adds_time(self, tiny_model, topo22):
        fast = run_deepspeed(
            tiny_model, topo22, DeepSpeedConfig(microbatch_size=1, collective_latency=0.0)
        )
        slow = run_deepspeed(
            tiny_model, topo22, DeepSpeedConfig(microbatch_size=1, collective_latency=0.05)
        )
        assert slow.step_seconds > fast.step_seconds
