"""Cross-module integration tests: plan -> simulate -> analyse invariants."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.traffic import mobius_traffic
from repro.baselines.deepspeed import DeepSpeedConfig, run_deepspeed
from repro.core.api import MobiusConfig, plan_mobius, run_mobius
from repro.core.pipeline import simulate_mobius
from repro.hardware.gpu import RTX_3090TI
from repro.hardware.topology import commodity_server
from repro.models.spec import build_gpt_like
from tests.helpers import compute_seconds


def small_model(n_blocks=6, hidden=1024):
    return build_gpt_like(
        f"itest-{hidden}x{n_blocks}",
        n_blocks=n_blocks,
        hidden_dim=hidden,
        n_heads=8,
        default_microbatch_size=1,
    )


CONFIG = MobiusConfig(partition_time_limit=0.5)


def _bandwidth(span):
    """Average achieved bandwidth of a transfer span, in bytes/s."""
    return span.nbytes / (span.end - span.start)


class TestPlanSimulateConsistency:
    @pytest.mark.parametrize("groups", [[4], [2, 2], [1, 3], [2, 1]])
    def test_simulation_tracks_estimate(self, groups):
        model = small_model()
        topology = commodity_server(groups)
        report = run_mobius(model, topology, CONFIG)
        estimate = report.plan_report.plan.estimated_step_seconds
        # The analytic estimate ignores contention, so it lower-bounds the
        # simulation loosely and never exceeds it by much.
        assert estimate <= report.step_seconds * 1.3
        assert report.step_seconds <= estimate * 3.0

    def test_traffic_matches_eq1_model(self):
        model = small_model()
        topology = commodity_server([2, 2])
        report = run_mobius(model, topology, CONFIG)
        estimate = mobius_traffic(model, 1, 4)
        measured = report.trace.total_transfer_bytes()
        # DES moves less than Eq. 1 on small models: the N resident-tail
        # stages (here a large fraction of S) skip their backward re-upload.
        assert 0.5 * estimate.total <= measured <= 1.05 * estimate.total

    def test_headline_invariant_mobius_beats_deepspeed(self):
        """The paper's core claim holds for arbitrary commodity topologies."""
        model = small_model(n_blocks=8, hidden=2048)
        for groups in ([4], [2, 2], [1, 3]):
            topology = commodity_server(groups)
            mobius = run_mobius(model, topology, CONFIG)
            ds = run_deepspeed(model, topology, DeepSpeedConfig(microbatch_size=1))
            assert ds.step_seconds > mobius.step_seconds, groups

    def test_partition_methods_are_all_feasible_end_to_end(self):
        model = small_model()
        topology = commodity_server([2, 2])
        steps = {}
        for method in ("mip", "max-stage", "min-stage"):
            report = run_mobius(
                model,
                topology,
                dataclasses.replace(CONFIG, partition_method=method),
            )
            steps[method] = report.step_seconds
        assert steps["mip"] <= min(steps.values()) * 1.001

    def test_smaller_gpu_memory_never_faster(self):
        model = small_model(n_blocks=8, hidden=2048)
        topology = commodity_server([2, 2])
        tight_gpu = dataclasses.replace(RTX_3090TI, memory_bytes=6 * 1024**3)
        tight_topo = commodity_server([2, 2], tight_gpu)
        roomy = run_mobius(model, topology, CONFIG)
        tight = run_mobius(model, tight_topo, CONFIG)
        assert tight.step_seconds >= roomy.step_seconds * 0.98


@settings(max_examples=8, deadline=None)
@given(
    n_blocks=st.integers(min_value=4, max_value=10),
    groups=st.sampled_from([[2, 2], [4], [1, 3]]),
)
def test_any_plan_simulates_cleanly(n_blocks, groups):
    """Property: planning + simulation never deadlocks and produces a
    complete compute schedule for arbitrary small models/topologies."""
    model = small_model(n_blocks=n_blocks)
    topology = commodity_server(groups)
    report = plan_mobius(model, topology, CONFIG)
    run = simulate_mobius(report.plan, topology, report.cost_model)
    costs = report.plan.partition.stage_costs(report.cost_model)
    expected_compute = sum(
        (c.fwd_seconds + c.bwd_seconds) * report.plan.n_microbatches for c in costs
    )
    assert compute_seconds(run.trace) == pytest.approx(expected_compute, rel=1e-6)
    assert run.step_seconds > 0


class TestDataCenterPath:
    def test_mobius_activations_ride_nvlink_on_dc(self):
        """On the NVLink server, inter-stage activations achieve NVLink-class
        bandwidth while stage swaps stay at PCIe rates."""
        from repro.hardware.topology import NVLINK_BW, PCIE_EFFECTIVE_BW, datacenter_server

        model = small_model(n_blocks=8, hidden=2048)
        topology = datacenter_server()
        report = run_mobius(model, topology, CONFIG)
        acts = [t for t in report.trace.transfers if t.kind == "activation"]
        uploads = [t for t in report.trace.transfers if t.kind == "param-upload"]
        assert acts and uploads
        assert max(map(_bandwidth, acts)) > PCIE_EFFECTIVE_BW * 1.5
        assert max(map(_bandwidth, uploads)) <= PCIE_EFFECTIVE_BW * 1.001
        assert max(map(_bandwidth, acts)) <= NVLINK_BW * 1.001
