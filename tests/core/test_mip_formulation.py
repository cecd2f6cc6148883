"""Cross-checks: the literal boolean MIP vs the production partitioner."""

import pytest

from repro.check.corpus import default_corpus
from repro.core.partition import PlanInfeasibleError, mip_partition
from repro.hardware.gpu import RTX_3090TI
from repro.models.costmodel import CostModel
from repro.models.spec import build_gpt_like
from tests.core.literal_mip import MIP, build_partition_mip, solve_partition_mip
from tests.helpers import evaluate_costs, mem_peak

BW = 13.1e9


@pytest.fixture
def small_model():
    return build_gpt_like(
        "small", n_blocks=5, hidden_dim=2048, n_heads=16, include_embedding=False
    )


@pytest.fixture
def cm():
    return CostModel(RTX_3090TI, 2)


class TestFormulation:
    def test_objective_matches_production_bnb(self, small_model, cm):
        """The headline validation: literal MIP == boundary search optimum."""
        gpu_memory = 4 * 10**9
        bnb = mip_partition(
            small_model, cm, 2, 2, BW, gpu_memory=gpu_memory, time_limit=30.0
        )
        assert bnb.optimal
        milp = solve_partition_mip(
            small_model, cm, 2, 2, BW, gpu_memory=gpu_memory
        )
        assert milp.partition is not None
        assert milp.optimal
        assert milp.step_seconds == pytest.approx(
            bnb.timings.step_seconds, rel=1e-3
        )

    def test_extracted_partition_evaluates_consistently(self, small_model, cm):
        gpu_memory = 4 * 10**9
        milp = solve_partition_mip(
            small_model, cm, 2, 2, BW, gpu_memory=gpu_memory
        )
        costs = cm.stage_costs_for_partition(
            small_model, list(milp.partition.boundaries)
        )
        timings = evaluate_costs(costs, 2, 2, BW, gpu_memory)
        assert timings.feasible
        assert timings.step_seconds == pytest.approx(milp.step_seconds, rel=1e-3)

    def test_memory_constraints_respected(self, small_model, cm):
        gpu_memory = 3 * 10**9
        milp = solve_partition_mip(
            small_model, cm, 2, 2, BW, gpu_memory=gpu_memory
        )
        for stage in range(milp.partition.n_stages):
            start, stop = milp.partition.stage_layers(stage)
            assert mem_peak(cm.stage_cost(small_model, start, stop), 2) <= gpu_memory

    def test_per_stage_solutions_reported(self, small_model, cm):
        milp = solve_partition_mip(
            small_model,
            cm,
            2,
            2,
            BW,
            gpu_memory=4 * 10**9,
            stage_counts=[2, 3, 4],
        )
        assert set(milp.per_stage_solutions) == {2, 3, 4}
        assert min(milp.per_stage_solutions.values()) == pytest.approx(
            milp.step_seconds
        )

    def test_invalid_stage_count_rejected(self, small_model, cm):
        with pytest.raises(ValueError):
            build_partition_mip(small_model, cm, 0, 2, 2, BW, 10**9)

    def test_time_limited_stage_count_is_not_optimal(self, small_model, cm, monkeypatch):
        """A stage count stopped on HiGHS's time limit returns an unproven
        incumbent; the result must say it is not a certified optimum."""
        real_solve = MIP.solve

        def limited(program, time_limit):
            result = real_solve(program, time_limit)
            if program.name.endswith("-S3"):
                result.status = 1  # HiGHS: time limit reached, incumbent kept
            return result

        monkeypatch.setattr(MIP, "solve", limited)
        milp = solve_partition_mip(
            small_model, cm, 2, 2, BW, gpu_memory=4 * 10**9, stage_counts=[2, 3]
        )
        assert set(milp.per_stage_solutions) == {2, 3}
        assert not milp.optimal


#: Boundary-search nodes per check-corpus cell, measured when the parity
#: test replaced the node-count gate of the retired solver benchmark.
_CORPUS_NODES = {
    "gpt-a/topo_2_2": 221,
    "gpt-a/topo_4": 221,
    "gpt-a/topo_1_3": 221,
    "gpt-b/topo_2_2": 359,
}


def _corpus_args(cell):
    """``(model, cost_model, N, M, B)`` exactly as ``plan_mobius`` derives them."""
    topology = cell.topology
    microbatch = cell.config.microbatch_size or cell.model.default_microbatch_size
    n_gpus = topology.n_gpus
    return (
        cell.model,
        CostModel(topology.gpu_spec, microbatch),
        n_gpus,
        cell.config.n_microbatches or n_gpus,
        cell.config.bandwidth or topology.pcie_bandwidth,
    )


class TestCorpusParity:
    """The boundary search against HiGHS on the literal MIP, every stage count."""

    @pytest.mark.parametrize("cell", default_corpus(), ids=lambda cell: cell.name)
    def test_search_matches_highs(self, cell):
        args = _corpus_args(cell)
        search = mip_partition(*args, time_limit=cell.config.partition_time_limit)
        milp = solve_partition_mip(*args)
        assert search.optimal
        assert search.nodes_explored <= 1.25 * _CORPUS_NODES[cell.name]
        assert milp.optimal
        assert milp.step_seconds == pytest.approx(
            search.timings.step_seconds, rel=1e-9
        )
        assert milp.partition.boundaries == search.partition.boundaries

    def test_both_report_an_infeasible_cell(self):
        model, cost_model, n_gpus, n_microbatches, bandwidth = _corpus_args(
            default_corpus()[0]
        )
        one_megabyte = 10**6  # nothing fits
        milp = solve_partition_mip(
            model, cost_model, n_gpus, n_microbatches, bandwidth,
            gpu_memory=one_megabyte,
        )
        assert milp.partition is None
        assert milp.optimal
        with pytest.raises(PlanInfeasibleError):
            mip_partition(
                model, cost_model, n_gpus, n_microbatches, bandwidth,
                gpu_memory=one_megabyte,
            )
