"""Tests for the end-to-end GPU memory audit."""

import dataclasses

import pytest

from repro.core.api import MobiusConfig, plan_mobius
from repro.hardware.gpu import RTX_3090TI
from repro.hardware.topology import commodity_server, topo_2_2
from repro.models.spec import build_gpt_like

from tests.core.memory_audit import audit_mobius_memory
from tests.helpers import mem_peak


@pytest.fixture
def model():
    return build_gpt_like(
        "audit", n_blocks=8, hidden_dim=2048, n_heads=16, default_microbatch_size=2
    )


def plan_for(model, topology, **config):
    report = plan_mobius(
        model, topology, MobiusConfig(partition_time_limit=0.5, **config)
    )
    return report


class TestMemoryAudit:
    def test_roomy_plan_within_capacity(self, model):
        topology = topo_2_2()
        report = plan_for(model, topology)
        audit = audit_mobius_memory(report.plan, topology, report.cost_model)
        assert audit.ok
        assert all(peak > 0 for peak in audit.peak_bytes)

    def test_tight_memory_still_within_capacity(self, model):
        """The real check: with GPU memory barely above a stage's needs, the
        executed schedule must still respect the capacity (Eqs. 4-5)."""
        from repro.models.costmodel import FRAMEWORK_OVERHEAD_BYTES, CostModel

        cm = CostModel(RTX_3090TI, 2)
        biggest = max(
            mem_peak(cm.stage_cost(model, i, i + 1), 4) for i in range(model.n_layers)
        )
        # A GPU whose usable memory is only ~2.2x the biggest single-layer
        # stage: the plan has to run close to capacity.
        tight_gpu = dataclasses.replace(
            RTX_3090TI, memory_bytes=int(biggest * 2.2) + FRAMEWORK_OVERHEAD_BYTES
        )
        topology = commodity_server([2, 2], tight_gpu)
        report = plan_for(model, topology)
        audit = audit_mobius_memory(report.plan, topology, report.cost_model)
        assert audit.ok, [p / 1e9 for p in audit.peak_bytes]
        # Tight plans actually use a large fraction of the memory.
        assert max(audit.peak_bytes) > 0.4 * audit.capacity_bytes

    def test_no_prefetch_uses_no_more_memory(self, model):
        topology = topo_2_2()
        report = plan_for(model, topology)
        with_pf = audit_mobius_memory(report.plan, topology, report.cost_model)
        without = audit_mobius_memory(
            report.plan, topology, report.cost_model, prefetch=False
        )
        assert max(without.peak_bytes) <= max(with_pf.peak_bytes) + 1

    def test_timeline_returns_to_near_zero(self, model):
        """After the step, only float dust remains resident."""
        topology = topo_2_2()
        report = plan_for(model, topology)
        audit = audit_mobius_memory(report.plan, topology, report.cost_model)
        for timeline in audit.timelines:
            assert abs(timeline[-1][1]) < 1024  # integer rounding dust

    def test_headroom_reported(self, model):
        topology = topo_2_2()
        report = plan_for(model, topology)
        audit = audit_mobius_memory(report.plan, topology, report.cost_model)
        for gpu in range(topology.n_gpus):
            assert audit.headroom_bytes(gpu) == audit.capacity_bytes - audit.peak_bytes[gpu]
