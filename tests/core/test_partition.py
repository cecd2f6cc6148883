"""Tests for the MIP partition algorithm and the §4.3 baselines."""

import pytest

from repro.core.partition import (
    max_stage_partition,
    min_stage_partition,
    mip_partition,
)
from repro.hardware.gpu import RTX_3090TI
from repro.models.costmodel import CostModel
from repro.models.spec import LayerKind, build_gpt_like

BW = 13.1e9


@pytest.fixture
def model():
    return build_gpt_like("m", n_blocks=8, hidden_dim=1024, n_heads=8)


@pytest.fixture
def cm():
    return CostModel(RTX_3090TI, 2)


class TestMipPartition:
    def test_finds_feasible_partition(self, model, cm):
        result = mip_partition(model, cm, 2, 2, BW, time_limit=2.0)
        assert result.timings.feasible
        assert result.partition.n_stages >= 1
        assert result.method == "mip"

    def test_small_instance_solved_to_optimality(self, model, cm):
        result = mip_partition(model, cm, 2, 2, BW, time_limit=30.0)
        assert result.optimal

    def test_beats_or_matches_baselines(self, model, cm):
        mip = mip_partition(model, cm, 2, 2, BW, time_limit=10.0)
        maxs = max_stage_partition(model, cm, 2, 2, BW)
        mins = min_stage_partition(model, cm, 2, 2, BW)
        assert mip.timings.step_seconds <= maxs.timings.step_seconds + 1e-9
        assert mip.timings.step_seconds <= mins.timings.step_seconds + 1e-9

    def test_memory_constrained_search(self, model, cm):
        biggest_layer = max(
            cm.stage_cost(model, i, i + 1).mem_peak(2) for i in range(model.n_layers)
        )
        gpu_memory = int(biggest_layer * 2.5)
        result = mip_partition(model, cm, 2, 2, BW, gpu_memory=gpu_memory, time_limit=5.0)
        for stage in range(result.partition.n_stages):
            start, stop = result.partition.stage_layers(stage)
            assert cm.stage_cost(model, start, stop).mem_peak(2) <= gpu_memory

    def test_impossible_memory_raises(self, model, cm):
        with pytest.raises(ValueError):
            mip_partition(model, cm, 2, 2, BW, gpu_memory=1000, time_limit=1.0)

    def test_deterministic(self, model, cm):
        a = mip_partition(model, cm, 2, 2, BW, time_limit=5.0)
        b = mip_partition(model, cm, 2, 2, BW, time_limit=5.0)
        assert a.partition.boundaries == b.partition.boundaries

    def test_solve_time_recorded(self, model, cm):
        result = mip_partition(model, cm, 2, 2, BW, time_limit=1.0)
        assert 0 < result.solve_seconds < 5.0
        assert result.nodes_explored > 0


class TestMaxStagePartition:
    def test_greedy_packs_to_memory_limit(self, model, cm):
        biggest_layer = max(
            cm.stage_cost(model, i, i + 1).mem_peak(2) for i in range(model.n_layers)
        )
        gpu_memory = int(biggest_layer * 3.2)
        result = max_stage_partition(model, cm, 2, 2, BW, gpu_memory=gpu_memory)
        # Each stage (except possibly the last) cannot absorb its successor's
        # first layer.
        partition = result.partition
        for stage in range(partition.n_stages - 1):
            start, stop = partition.stage_layers(stage)
            grown = cm.stage_cost(model, start, stop + 1)
            assert grown.mem_peak(2) > gpu_memory

    def test_single_layer_too_big_raises(self, model, cm):
        with pytest.raises(ValueError):
            max_stage_partition(model, cm, 2, 2, BW, gpu_memory=1000)

    def test_fewer_stages_than_min_stage(self, model, cm):
        maxs = max_stage_partition(model, cm, 2, 2, BW)
        mins = min_stage_partition(model, cm, 2, 2, BW)
        assert maxs.partition.n_stages <= mins.partition.n_stages


class TestMinStagePartition:
    def test_one_block_per_stage(self, model, cm):
        result = min_stage_partition(model, cm, 2, 2, BW)
        n_blocks = sum(
            1 for l in model.layers if l.kind == LayerKind.TRANSFORMER_BLOCK
        )
        # Embedding merges into the first block's stage; norm+head into the
        # last block's stage.
        assert result.partition.n_stages == n_blocks
        start0, stop0 = result.partition.stage_layers(0)
        assert model.layers[start0].kind == LayerKind.EMBEDDING

    def test_infeasible_min_stage_raises(self, model, cm):
        with pytest.raises(ValueError):
            min_stage_partition(model, cm, 2, 2, BW, gpu_memory=1000)


class TestForwardStackStepTime:
    """The incremental backward sweep must be bit-identical to the full
    pipeline evaluation it replaces on the DFS leaf path."""

    def test_matches_evaluate_pipeline_on_random_partitions(self, model, cm):
        import itertools

        from repro.core.partition import _ForwardStack, _SearchContext
        from repro.core.timing import evaluate_pipeline

        n_layers = len(model.layers)
        gpu_memory = cm.usable_gpu_bytes()
        for n_gpus in (2, 3):
            ctx = _SearchContext(model, cm, n_gpus, n_gpus, BW, gpu_memory)
            checked = 0
            for boundaries in itertools.combinations(
                range(1, n_layers), n_gpus * 2 - 1
            ):
                cuts = (0,) + boundaries + (n_layers,)
                stack = _ForwardStack(ctx)
                for start, stop in zip(cuts, cuts[1:]):
                    stack.push(start, stop)
                stage_costs = [
                    ctx.stage_cost(start, stop)
                    for start, stop in zip(cuts, cuts[1:])
                ]
                expected = evaluate_pipeline(
                    stage_costs, n_gpus, n_gpus, BW, gpu_memory
                ).step_seconds
                if expected != float("inf"):
                    assert stack.step_time() == expected
                    checked += 1
                if checked >= 40:
                    break
            assert checked > 0


class TestDeterministicBudgets:
    def test_node_budget_truncates_deterministically(self, model, cm):
        first = mip_partition(model, cm, 2, 2, BW, max_nodes=10)
        second = mip_partition(model, cm, 2, 2, BW, max_nodes=10)
        assert not first.optimal  # budget of 10 cannot finish this search
        assert first.partition.boundaries == second.partition.boundaries
        assert first.nodes_explored == second.nodes_explored == 10

    def test_result_independent_of_time_limit(self, model, cm):
        fast = mip_partition(model, cm, 2, 2, BW, time_limit=1.0)
        slow = mip_partition(model, cm, 2, 2, BW, time_limit=60.0)
        assert fast.partition.boundaries == slow.partition.boundaries
        assert fast.nodes_explored == slow.nodes_explored


def _compositions(n_layers):
    """Every boundary tuple of an ``n_layers`` model, in lexicographic order."""
    import itertools

    for n_cuts in range(n_layers):
        yield from itertools.combinations(range(1, n_layers), n_cuts)


class TestBoundAdmissibility:
    """Brute force over every composition of tiny GPT-like models.

    The DFS prunes a subtree only when its bound is at least the incumbent
    plus 1e-12, so a bound within 1e-12 of the best completion is safe.
    """

    @pytest.fixture(params=[(2, None), (4, None), (4, 2.5)], ids=["n2", "n4", "n4-tight"])
    def instance(self, request):
        n_gpus, layers_per_gpu = request.param
        model = build_gpt_like(
            "tiny", n_blocks=6, hidden_dim=512, n_heads=8, seq_len=256, vocab_size=2048
        )
        cm = CostModel(RTX_3090TI, 2)
        gpu_memory = cm.usable_gpu_bytes()
        if layers_per_gpu is not None:
            biggest_layer = max(
                cm.stage_cost(model, i, i + 1).mem_peak(n_gpus) for i in range(model.n_layers)
            )
            gpu_memory = int(biggest_layer * layers_per_gpu)
        return model, cm, n_gpus, gpu_memory

    def _brute_force(self, model, cm, n_gpus, gpu_memory):
        """Step time of every feasible composition, and every prefix bound.

        Both are keyed by stage stops, ``(*boundaries, n_layers)`` for a
        full partition, so a prefix's completions share its leading stops.
        """
        from repro.core.partition import _ForwardStack, _SearchContext

        ctx = _SearchContext(model, cm, n_gpus, n_gpus, BW, gpu_memory)
        steps, bounds = {}, {}
        for boundaries in _compositions(model.n_layers):
            timings = ctx.evaluate(boundaries)
            if not timings.feasible:
                continue
            stops = (*boundaries, model.n_layers)
            steps[stops] = timings.step_seconds
            stack = _ForwardStack(ctx)
            for index, (start, stop) in enumerate(zip((0, *stops), stops)):
                bounds[stops[: index + 1]] = stack.push(start, stop)
        return steps, bounds

    def test_prefix_bound_never_exceeds_best_completion(self, instance):
        steps, bounds = self._brute_force(*instance)
        assert len(steps) > 10
        for prefix, bound in bounds.items():
            best = min(step for stops, step in steps.items() if stops[: len(prefix)] == prefix)
            assert bound <= best + 1e-12, prefix

    def test_exhausted_search_returns_brute_force_canonical_optimum(self, instance):
        model, cm, n_gpus, gpu_memory = instance
        steps, _ = self._brute_force(model, cm, n_gpus, gpu_memory)
        best = min(steps.values())
        canonical = min(stops for stops, step in steps.items() if step < best + 1e-12)
        result = mip_partition(
            model, cm, n_gpus, n_gpus, BW, gpu_memory=gpu_memory, max_nodes=10**6
        )
        assert result.optimal
        assert result.partition.boundaries == canonical[:-1]
        assert result.timings.step_seconds == steps[canonical]
        assert result.lower_bound == result.timings.step_seconds
        assert result.gap == 0.0


class TestCertificate:
    def test_truncated_lower_bound_is_certified(self, model, cm):
        exhausted = mip_partition(model, cm, 2, 2, BW, max_nodes=10**6)
        assert exhausted.optimal and exhausted.gap == 0.0
        for budget in (1, 3, 10, 30):
            truncated = mip_partition(model, cm, 2, 2, BW, max_nodes=budget)
            if truncated.optimal:
                continue
            step = truncated.timings.step_seconds
            assert truncated.lower_bound <= exhausted.timings.step_seconds
            assert truncated.lower_bound <= step
            assert truncated.gap == (step - truncated.lower_bound) / step
            assert truncated.gap >= 0.0

    def test_baselines_certify_nothing(self, model, cm):
        import math

        result = max_stage_partition(model, cm, 2, 2, BW)
        assert math.isnan(result.lower_bound) and math.isnan(result.gap)


class TestTable3On4Plus4:
    """The Table-3 models on the 8-GPU server, as ``plan_mobius`` solves them."""

    @pytest.fixture(scope="class")
    def solves(self):
        from repro.core.partition import _SearchContext, _warm_start
        from repro.hardware.topology import topo_4_4
        from repro.models.zoo import gpt_3b, gpt_8b, gpt_15b, gpt_51b

        topology = topo_4_4()
        out = {}
        for factory in (gpt_3b, gpt_8b, gpt_15b, gpt_51b):
            model = factory()
            cost_model = CostModel(topology.gpu_spec, model.default_microbatch_size)
            args = (model, cost_model, 8, 8, topology.pcie_bandwidth)
            ctx = _SearchContext(*args, cost_model.usable_gpu_bytes())
            out[model.name] = (mip_partition(*args), _warm_start(ctx)[0])
        return out

    @pytest.mark.parametrize("name", ["GPT-8B", "GPT-15B", "GPT-51B"])
    def test_search_exhausts(self, solves, name):
        result, _ = solves[name]
        assert result.optimal
        assert result.gap == 0.0
        assert result.nodes_explored < 20_000

    def test_gpt_3b_keeps_the_warm_start_incumbent(self, solves):
        result, incumbent = solves["GPT-3B"]
        assert result.partition.boundaries == tuple(incumbent)
        assert not result.optimal
        assert 0.0 < result.gap < 1.0
