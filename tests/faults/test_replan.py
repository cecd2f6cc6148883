"""Tests for elastic re-planning after GPU dropout."""

import pytest

from repro.check.corpus import default_corpus
from repro.check.mapping_check import check_mapping
from repro.check.plan_check import check_plan
from repro.core.api import MobiusConfig, plan_mobius
from repro.core.partition import PlanInfeasibleError
from repro.faults.replan import (
    ReplanCostModel,
    replan_after_dropout,
    surviving_topology,
)
from repro.hardware.topology import commodity_server, topo_1_3, topo_2_2


class TestSurvivingTopology:
    def test_group_loses_one_gpu(self):
        survivors = surviving_topology(topo_2_2(), 3)
        assert survivors.groups == (2, 1)
        assert survivors.n_gpus == 3

    def test_empty_group_is_dropped(self):
        survivors = surviving_topology(topo_1_3(), 0)
        assert survivors.groups == (3,)

    def test_link_parameters_preserved(self):
        original = topo_2_2()
        survivors = surviving_topology(original, 0)
        assert survivors.gpu_spec == original.gpu_spec
        assert survivors.pcie_bandwidth == original.pcie_bandwidth
        assert survivors.dram_bandwidth == original.dram_bandwidth
        assert "gpu0" in survivors.name

    def test_no_survivors_is_typed_infeasible(self):
        with pytest.raises(PlanInfeasibleError):
            surviving_topology(commodity_server([1]), 0)

    def test_out_of_range_gpu_rejected(self):
        with pytest.raises(ValueError):
            surviving_topology(topo_2_2(), 4)


class TestReplanCostModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReplanCostModel(replan_seconds=-1.0)
        with pytest.raises(ValueError):
            ReplanCostModel(migration_overhead=0.5)


class TestReplanAfterDropout:
    @pytest.fixture(scope="class")
    def replanned(self):
        cell = default_corpus()[0]
        old = plan_mobius(cell.model, cell.topology, cell.config)
        result = replan_after_dropout(
            cell.model,
            cell.topology,
            cell.config,
            cell.topology.n_gpus - 1,
            old_plan_report=old,
        )
        return cell, old, result

    def test_plan_targets_surviving_gpus(self, replanned):
        cell, _, result = replanned
        assert result.topology.n_gpus == cell.topology.n_gpus - 1
        assert result.plan_report.plan.n_gpus == cell.topology.n_gpus - 1

    def test_replan_passes_the_checkers(self, replanned):
        cell, _, result = replanned
        plan = result.plan_report.plan
        report = check_plan(plan, result.plan_report.cost_model)
        report.extend(check_mapping(plan.mapping, result.topology, plan.n_stages))
        assert report.ok, report.render()

    def test_time_to_recover_is_positive_and_modeled(self, replanned):
        cell, _, result = replanned
        assert result.time_to_recover > 0
        # Default latency model charges the MIP search budget, not the
        # nondeterministic realized solve time.
        assert result.replan_seconds == cell.config.partition_time_limit
        assert result.migration_seconds == pytest.approx(
            result.migration_bytes / result.topology.pcie_bandwidth
        )

    def test_migration_counts_dropped_gpu_state(self, replanned):
        cell, old, result = replanned
        dropped = cell.topology.n_gpus - 1
        stage_costs = old.plan.partition.stage_costs(old.cost_model)
        expected = sum(
            stage_costs[j].param_bytes for j in old.plan.stages_of_gpu(dropped)
        )
        assert result.migration_bytes == pytest.approx(expected)

    def test_explicit_replan_seconds_override(self):
        cell = default_corpus()[0]
        result = replan_after_dropout(
            cell.model,
            cell.topology,
            cell.config,
            0,
            cost=ReplanCostModel(replan_seconds=0.25, migration_overhead=2.0),
        )
        assert result.replan_seconds == 0.25
        assert result.migration_seconds == pytest.approx(
            2.0 * result.migration_bytes / result.topology.pcie_bandwidth
        )

    def test_last_gpu_dropout_is_typed_infeasible(self, tiny_model):
        topology = commodity_server([1])
        config = MobiusConfig(partition_time_limit=1.0)
        with pytest.raises(PlanInfeasibleError):
            replan_after_dropout(tiny_model, topology, config, 0)


class TestReplanIsAFreshPlan:
    def test_replan_matches_a_cold_plan_of_the_survivors(self):
        """The N-1 re-solve is a plain plan_mobius call: the same plan and
        the same search as planning the surviving topology in a fresh
        process."""
        from repro.models.zoo import gpt2_small
        from repro.perf.cache import cache_overridden

        model = gpt2_small()
        topology = commodity_server([2, 2])
        config = MobiusConfig()

        with cache_overridden(memory=False, disk=False):
            old = plan_mobius(model, topology, config)
            result = replan_after_dropout(
                model, topology, config, 3, old_plan_report=old
            )
            cold = plan_mobius(model, surviving_topology(topology, 3), config)

        assert (
            result.plan_report.partition_result.nodes_explored
            == cold.partition_result.nodes_explored
            > 0
        )
        assert (
            result.plan_report.plan.partition.boundaries
            == cold.plan.partition.boundaries
        )
