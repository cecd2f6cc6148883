"""Edge-case coverage for the pipeline-timing recurrence."""

import pytest

from repro.core.timing import evaluate_pipeline
from repro.hardware.gpu import RTX_3090TI
from repro.models.costmodel import CostModel
from repro.models.spec import build_gpt_like
from tests.helpers import evaluate_costs, stage_records

BW = 13.1e9
BIG = 1 << 62


@pytest.fixture
def cm():
    return CostModel(RTX_3090TI, 1)


@pytest.fixture
def model():
    return build_gpt_like("edge", n_blocks=6, hidden_dim=256, n_heads=4)


class TestEdgeCases:
    def test_single_stage(self, model, cm):
        costs = [cm.stage_cost(model, 0, model.n_layers)]
        timings = evaluate_costs(costs, 1, 1, BW, BIG)
        assert timings.feasible
        expected = (
            costs[0].param_bytes / BW + costs[0].fwd_seconds + costs[0].bwd_seconds
        )
        assert timings.step_seconds == pytest.approx(expected)

    def test_single_microbatch(self, model, cm):
        costs = cm.stage_costs_for_partition(model, [3, 5])
        timings = evaluate_costs(costs, 3, 1, BW, BIG)
        assert timings.feasible
        # With one microbatch there is no pipelining: step >= serial chain.
        serial = sum(c.fwd_seconds + c.bwd_seconds for c in costs)
        assert timings.step_seconds >= serial

    def test_more_gpus_than_stages(self, model, cm):
        costs = cm.stage_costs_for_partition(model, [4])
        timings = evaluate_costs(costs, 4, 4, BW, BIG)
        assert timings.feasible
        assert timings.step_seconds > 0

    def test_many_microbatches_amortise_fill(self, model, cm):
        costs = cm.stage_costs_for_partition(model, [3, 5])
        few = evaluate_costs(costs, 3, 2, BW, BIG)
        many = evaluate_costs(costs, 3, 16, BW, BIG)
        # Per-microbatch time shrinks as the fill amortises.
        assert many.step_seconds / 16 < few.step_seconds / 2

    def test_prefetch_tables_match_stage_count(self, model, cm):
        costs = cm.stage_costs_for_partition(model, [2, 4, 6])
        timings = evaluate_costs(costs, 2, 2, BW, BIG)
        assert len(timings.prefetch_fwd_bytes) == 4
        assert len(timings.prefetch_bwd_bytes) == 4

    def test_zero_bandwidth_rejected(self, model, cm):
        costs = cm.stage_costs_for_partition(model, [4])
        with pytest.raises(ValueError):
            evaluate_pipeline(stage_records(costs, 2, BW, BIG), 2, 2, 0.0, BIG)

    def test_per_stage_tables_shapes(self, model, cm):
        costs = cm.stage_costs_for_partition(model, [3, 5])
        timings = evaluate_costs(costs, 3, 5, BW, BIG)
        assert len(timings.t_fwd) == 3
        assert all(len(row) == 5 for row in timings.t_fwd)
        assert len(timings.t_bwd) == 3
