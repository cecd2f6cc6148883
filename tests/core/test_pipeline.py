"""Tests for the Mobius pipeline emitter and simulator integration."""

import pytest

from repro.core.api import MobiusConfig, plan_mobius, run_mobius
from repro.core.pipeline import simulate_mobius
from repro.hardware.topology import topo_2_2
from repro.models.spec import FP16_BYTES
from tests.helpers import compute_seconds


@pytest.fixture
def plan_report(tiny_model, topo22):
    return plan_mobius(tiny_model, topo22, MobiusConfig(partition_time_limit=1.0))


class TestSimulation:
    def test_step_completes(self, plan_report, tiny_model, topo22):
        run = simulate_mobius(plan_report.plan, topo22, plan_report.cost_model)
        assert run.step_seconds > 0

    def test_estimate_within_factor_of_simulation(self, plan_report, topo22):
        run = simulate_mobius(plan_report.plan, topo22, plan_report.cost_model)
        estimate = plan_report.plan.estimated_step_seconds
        assert estimate <= run.step_seconds * 1.5
        assert run.step_seconds <= estimate * 3.0

    def test_compute_totals_match_cost_model(self, plan_report, topo22, tiny_model):
        run = simulate_mobius(plan_report.plan, topo22, plan_report.cost_model)
        plan = plan_report.plan
        costs = plan.partition.stage_costs(plan_report.cost_model)
        expected = sum(
            (c.fwd_seconds + c.bwd_seconds) * plan.n_microbatches for c in costs
        )
        assert compute_seconds(run.trace) == pytest.approx(expected, rel=1e-6)

    def test_param_upload_traffic_near_2x(self, plan_report, topo22, tiny_model):
        """Eq. 1: parameters transferred ~2x FP16 size (minus resident tail)."""
        run = simulate_mobius(plan_report.plan, topo22, plan_report.cost_model)
        uploads = run.trace.total_transfer_bytes(["param-upload"])
        fp16 = tiny_model.param_bytes(FP16_BYTES)
        assert uploads <= 2 * fp16 + 1
        assert uploads >= 1.0 * fp16  # at least the forward sweep

    def test_grad_offload_traffic_is_1x(self, plan_report, topo22, tiny_model):
        run = simulate_mobius(plan_report.plan, topo22, plan_report.cost_model)
        grads = run.trace.total_transfer_bytes(["grad-offload"])
        assert grads == pytest.approx(tiny_model.param_bytes(FP16_BYTES))

    def test_total_traffic_below_deepspeed(self, plan_report, topo22, tiny_model):
        """Mobius traffic is ~1.5x model FP32 bytes, far below ~1.5Nx."""
        run = simulate_mobius(plan_report.plan, topo22, plan_report.cost_model)
        total = run.trace.total_transfer_bytes()
        model_fp32 = tiny_model.param_bytes(4)
        assert total < 2.5 * model_fp32

    def test_prefetch_disabled_is_slower_or_equal(self, plan_report, topo22):
        with_prefetch = simulate_mobius(
            plan_report.plan, topo22, plan_report.cost_model, prefetch=True
        )
        without = simulate_mobius(
            plan_report.plan, topo22, plan_report.cost_model, prefetch=False
        )
        assert without.step_seconds >= with_prefetch.step_seconds - 1e-9

    def test_every_gpu_computes(self, plan_report, topo22):
        run = simulate_mobius(plan_report.plan, topo22, plan_report.cost_model)
        for gpu in range(topo22.n_gpus):
            assert compute_seconds(run.trace, gpu) > 0

    def test_stage_cost_count_must_match(self, plan_report, topo22):
        from repro.core.pipeline import build_mobius_tasks

        costs = plan_report.plan.partition.stage_costs(plan_report.cost_model)
        with pytest.raises(ValueError):
            build_mobius_tasks(plan_report.plan, topo22, costs[:-1])


class TestEndToEndApi:
    def test_run_mobius_defaults(self, tiny_model, topo22):
        report = run_mobius(tiny_model, topo22, MobiusConfig(partition_time_limit=1.0))
        assert report.step_seconds > 0
        assert report.plan_report.plan.n_microbatches == topo22.n_gpus

    def test_unknown_partition_method(self, tiny_model, topo22):
        with pytest.raises(ValueError):
            plan_mobius(
                tiny_model, topo22, MobiusConfig(partition_method="magic")
            )

    def test_unknown_mapping_method(self, tiny_model, topo22):
        with pytest.raises(ValueError):
            plan_mobius(tiny_model, topo22, MobiusConfig(mapping_method="magic"))

    def test_partition_method_baselines(self, tiny_model, topo22):
        for method in ("max-stage", "min-stage"):
            report = run_mobius(
                tiny_model,
                topo22,
                MobiusConfig(partition_method=method, partition_time_limit=1.0),
            )
            assert report.step_seconds > 0

    def test_sequential_mapping_config(self, tiny_model, topo22):
        report = run_mobius(
            tiny_model,
            topo22,
            MobiusConfig(mapping_method="sequential", partition_time_limit=1.0),
        )
        assert report.plan_report.plan.mapping.perm == (0, 1, 2, 3)

    def test_overheads_populated(self, plan_report):
        assert plan_report.profile_report.profiling_seconds > 0
        assert plan_report.partition_result.nodes_explored > 0
        assert plan_report.mapping_result.schemes_evaluated > 0


class TestConfigValidation:
    """A field value that would silently mean something else is rejected
    at construction, with the field's name."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("microbatch_size", 0),
            ("microbatch_size", -1),
            ("n_microbatches", 0),
            ("n_microbatches", -2),
            ("partition_max_nodes", 0),
            ("bandwidth", 0),
            ("bandwidth", -1e9),
            ("bandwidth", float("inf")),
            ("bandwidth", float("nan")),
            ("partition_time_limit", 0),
            ("partition_time_limit", -1.0),
            ("partition_time_limit", float("nan")),
        ],
    )
    def test_bad_field_raises_naming_it(self, field, value):
        with pytest.raises(ValueError, match=field):
            MobiusConfig(**{field: value})

    def test_defaults_and_valid_values_accepted(self):
        import dataclasses

        MobiusConfig()
        config = MobiusConfig(
            microbatch_size=1,
            n_microbatches=1,
            partition_max_nodes=1,
            bandwidth=1e9,
            partition_time_limit=float("inf"),
        )
        with pytest.raises(ValueError, match="partition_max_nodes"):
            dataclasses.replace(config, partition_max_nodes=0)
