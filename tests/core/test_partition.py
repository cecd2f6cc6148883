"""Tests for the MIP partition algorithm and the §4.3 baselines."""

import json
from pathlib import Path

import pytest

from repro.core.partition import (
    max_stage_partition,
    min_stage_partition,
    mip_partition,
)
from repro.hardware.gpu import RTX_3090TI
from repro.models.costmodel import CostModel, StageCost
from repro.models.spec import LayerKind, build_gpt_like
from tests.helpers import mem_peak

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
            mem_peak(cm.stage_cost(model, i, i + 1), 2) for i in range(model.n_layers)
        )
        gpu_memory = int(biggest_layer * 2.5)
        result = mip_partition(model, cm, 2, 2, BW, gpu_memory=gpu_memory, time_limit=5.0)
        for stage in range(result.partition.n_stages):
            start, stop = result.partition.stage_layers(stage)
            assert mem_peak(cm.stage_cost(model, start, stop), 2) <= gpu_memory

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
            mem_peak(cm.stage_cost(model, i, i + 1), 2) for i in range(model.n_layers)
        )
        gpu_memory = int(biggest_layer * 3.2)
        result = max_stage_partition(model, cm, 2, 2, BW, gpu_memory=gpu_memory)
        # Each stage (except possibly the last) cannot absorb its successor's
        # first layer.
        partition = result.partition
        for stage in range(partition.n_stages - 1):
            start, stop = partition.stage_layers(stage)
            grown = cm.stage_cost(model, start, stop + 1)
            assert mem_peak(grown, 2) > gpu_memory

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
                    cm.stage_cost(model, start, stop)
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


def _assert_warm_start_matches_oracle(*context_args):
    """The warm start returns the oracle's boundaries and step bits."""
    from repro.core.partition import _SearchContext, _warm_start
    from tests.core import warm_start_oracle

    boundaries, step = _warm_start(_SearchContext(*context_args))
    expected, expected_step = warm_start_oracle._warm_start(_SearchContext(*context_args))
    assert boundaries == expected
    assert step.hex() == expected_step.hex()


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
                mem_peak(cm.stage_cost(model, i, i + 1), n_gpus) for i in range(model.n_layers)
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

    def test_relaxation_never_exceeds_push_bound(self, instance):
        """The DFS's O(1) pre-push prune is exact: for every prefix it can
        reach and every child it tries, the relaxation is at most the push
        bound under plain ``<=`` — no epsilon — so it prunes only children
        the push bound prunes."""
        from repro.core.partition import _ForwardStack, _SearchContext

        model, cm, n_gpus, gpu_memory = instance
        ctx = _SearchContext(model, cm, n_gpus, n_gpus, BW, gpu_memory)
        stack = _ForwardStack(ctx)
        checked = 0

        def visit(start):
            nonlocal checked
            if start:
                arrival, max_bwd = stack.tail()
            for stop, fwd, bwd in ctx.children(start):
                bound = stack.push(start, stop)
                if start:
                    relaxed = (
                        arrival + fwd + ctx.fwd_suffix[stop] + ctx.total_bwd
                        + (n_gpus - 1) * max(max_bwd, bwd)
                    )
                    assert relaxed <= bound, (start, stop)
                    checked += 1
                if stop < model.n_layers:
                    visit(stop)
                stack.pop()

        visit(0)
        assert checked > 10

    def test_score_is_bit_equal_to_evaluate(self, instance):
        """The warm start's scoring kernel is the full evaluation's step
        float, and ``inf`` exactly for the Eq. 4-infeasible compositions."""
        import math

        from repro.core.partition import _SearchContext

        model, cm, n_gpus, gpu_memory = instance
        ctx = _SearchContext(model, cm, n_gpus, n_gpus, BW, gpu_memory)
        feasible = 0
        for boundaries in _compositions(model.n_layers):
            score = ctx.score(boundaries)
            timings = ctx.evaluate(boundaries)
            assert (score == math.inf) == (not timings.feasible), boundaries
            if timings.feasible:
                assert score.hex() == timings.step_seconds.hex(), boundaries
                feasible += 1
        assert feasible > 10

    def test_score_does_not_depend_on_call_order(self, instance):
        """score() keeps one forward stack across calls and re-pushes only
        the stages after the previous candidate's common prefix.  Whatever
        the order of candidates (mixed stage counts, infeasible ones in
        between), every score is the full evaluation's float."""
        import random

        from repro.core.partition import _SearchContext

        model, cm, n_gpus, gpu_memory = instance
        args = (model, cm, n_gpus, n_gpus, BW, gpu_memory)
        candidates = list(_compositions(model.n_layers))[::5]
        assert len({len(b) for b in candidates}) > 3
        reference = _SearchContext(*args)
        expected = {b: reference.evaluate(b).step_seconds.hex() for b in candidates}
        for seed in range(4):
            order = list(candidates)
            random.Random(seed).shuffle(order)
            ctx = _SearchContext(*args)
            for boundaries in order:
                assert ctx.score(boundaries).hex() == expected[boundaries], (seed, boundaries)

    def test_cut_score_contract(self, instance):
        """A score with a cutoff is exact below the cutoff; otherwise the
        step is at least the cutoff.  A cut score is not memoised, and two
        stacks interleaved in any order keep every answer to that contract."""
        import math
        import random

        from repro.core.partition import _SearchContext

        model, cm, n_gpus, gpu_memory = instance
        args = (model, cm, n_gpus, n_gpus, BW, gpu_memory)
        reference = _SearchContext(*args)
        candidates = list(_compositions(model.n_layers))
        steps = {b: reference.evaluate(b).step_seconds for b in candidates}
        finite = sorted(step for step in steps.values() if step < math.inf)
        cutoffs = [*finite[:: max(1, len(finite) // 8)], finite[-1], math.inf]
        cut = 0
        for seed in range(4):
            rng = random.Random(seed)
            ctx = _SearchContext(*args)
            for boundaries in rng.sample(candidates, len(candidates)):
                cutoff = rng.choice(cutoffs)
                got = ctx.score(boundaries, cutoff, rng.randrange(2))
                step = steps[boundaries]
                if got < cutoff:
                    assert got.hex() == step.hex(), (seed, boundaries, cutoff)
                    continue
                assert step >= cutoff, (seed, boundaries, cutoff)
                if got != step:
                    cut += 1
                    assert ctx.score(boundaries).hex() == step.hex(), (seed, boundaries)
        assert cut > 10

    def test_warm_start_matches_oracle(self, instance):
        model, cm, n_gpus, gpu_memory = instance
        _assert_warm_start_matches_oracle(model, cm, n_gpus, n_gpus, BW, gpu_memory)

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


_GOLDEN = Path(__file__).with_name("partition_golden.json")


def _solve(model_name, topology_name="topo_4_4", bandwidth_scale=1.0, max_nodes=20_000):
    """``mip_partition`` of a zoo model as ``plan_mobius`` sets it up."""
    from repro.hardware import topology as topologies
    from repro.models.zoo import model_by_name

    model = model_by_name(model_name)
    topology = getattr(topologies, topology_name)()
    cost_model = CostModel(topology.gpu_spec, model.default_microbatch_size)
    n_gpus = topology.n_gpus
    bandwidth = topology.pcie_bandwidth * bandwidth_scale
    return mip_partition(model, cost_model, n_gpus, n_gpus, bandwidth, max_nodes=max_nodes)


class TestGoldenIdentity:
    """Searches pinned field by field, floats by ``hex()``.

    The values were recorded before the pre-push prune and the scoring
    kernel went in: both must leave every search visiting the same nodes
    and returning the same bits.  The ``max_nodes`` cuts of GPT-3B cover
    the path where a cut child is still pushed for its exact bound.
    """

    @pytest.mark.parametrize(
        "case",
        json.loads(_GOLDEN.read_text()),
        ids=lambda c: f"{c['model']}-{c['topology']}-x{c['bandwidth_scale']}-n{c['max_nodes']}",
    )
    def test_search_matches_recorded_values(self, case):
        result = _solve(
            case["model"], case["topology"], case["bandwidth_scale"], case["max_nodes"]
        )
        got = {
            "boundaries": list(result.partition.boundaries),
            "nodes_explored": result.nodes_explored,
            "optimal": result.optimal,
            "step_seconds": result.timings.step_seconds.hex(),
            "lower_bound": result.lower_bound.hex(),
            "prefetch_fwd_bytes": list(result.timings.prefetch_fwd_bytes),
            "prefetch_bwd_bytes": list(result.timings.prefetch_bwd_bytes),
        }
        assert got == {key: case[key] for key in got}


class TestWarmStartOracle:
    """The cut warm start returns the incumbent of the one that scores every
    candidate exactly (``tests/core/warm_start_oracle.py``), bit for bit."""

    @pytest.mark.parametrize(
        "config",
        sorted({
            (case["model"], case["topology"], case["bandwidth_scale"])
            for case in json.loads(_GOLDEN.read_text())
        }),
        ids=lambda c: f"{c[0]}-{c[1]}-x{c[2]}",
    )
    def test_golden_configuration(self, config):
        from repro.hardware import topology as topologies
        from repro.models.zoo import model_by_name

        model_name, topology_name, bandwidth_scale = config
        model = model_by_name(model_name)
        topology = getattr(topologies, topology_name)()
        cost_model = CostModel(topology.gpu_spec, model.default_microbatch_size)
        n_gpus = topology.n_gpus
        _assert_warm_start_matches_oracle(
            model, cost_model, n_gpus, n_gpus,
            topology.pcie_bandwidth * bandwidth_scale, cost_model.usable_gpu_bytes(),
        )


class TestSearchWork:
    """Work counts of one solve, counted by wrappers installed here only."""

    @pytest.fixture
    def counted(self, monkeypatch):
        from repro.core import partition

        counts = {
            "push": 0, "warm_push": 0, "sweep": 0, "warm_sweep": 0,
            "evaluate": 0, "stage_cost": 0,
        }
        push, step_time, warm_start, evaluate, stage_cost = (
            partition._ForwardStack.push,
            partition._ForwardStack.step_time,
            partition._warm_start,
            partition.evaluate_pipeline,
            partition.StageCost,
        )

        def counted_push(self, start, stop):
            counts["push"] += 1
            return push(self, start, stop)

        def counted_step_time(self):
            counts["sweep"] += 1
            return step_time(self)

        def counted_warm_start(ctx):
            out = warm_start(ctx)
            counts["warm_push"] = counts["push"]
            counts["warm_sweep"] = counts["sweep"]
            return out

        def counted_evaluate(*args, **kwargs):
            counts["evaluate"] += 1
            return evaluate(*args, **kwargs)

        def counted_stage_cost(*args, **kwargs):
            counts["stage_cost"] += 1
            return stage_cost(*args, **kwargs)

        monkeypatch.setattr(partition._ForwardStack, "push", counted_push)
        monkeypatch.setattr(partition._ForwardStack, "step_time", counted_step_time)
        monkeypatch.setattr(partition, "_warm_start", counted_warm_start)
        monkeypatch.setattr(partition, "evaluate_pipeline", counted_evaluate)
        monkeypatch.setattr(partition, "StageCost", counted_stage_cost)
        return counts

    def test_gpt_3b_dfs_pushes_few_children(self, counted):
        result = _solve("GPT-3B")
        assert result.nodes_explored == 20_000
        # The DFS pushes 3,854 of the 22,068 children of its 20,000 nodes;
        # the O(1) relaxation prunes the rest unpushed.
        assert counted["push"] - counted["warm_push"] == 3_854

    def test_gpt_3b_warm_start_reuses_its_forward_prefix(self, counted):
        _solve("GPT-3B")
        # 6,006 pushes when every score re-pushed the whole plan, and 4,425
        # pushes with 149 backward sweeps when a shared stack re-pushed only
        # the stages after the common prefix but scored every candidate
        # exactly.  Cutting each candidate that cannot win at its push bound
        # leaves these.
        assert counted["warm_push"] == 2_127
        assert counted["warm_sweep"] == 85

    @pytest.mark.parametrize("name", ["GPT-3B", "GPT-8B", "GPT-15B", "GPT-51B"])
    def test_one_timing_table_per_solve(self, counted, name):
        result = _solve(name)
        assert counted["evaluate"] == 1
        # The search reads the stage table; only the returned plan's timing
        # table builds StageCost objects.
        assert counted["stage_cost"] == result.partition.n_stages

    def test_solve_leaves_no_reference_cycle(self, model, cm, monkeypatch):
        """With the cyclic collector off, the search context (and its stage
        table) dies as soon as the solve returns."""
        import gc
        import weakref

        from repro.core import partition

        contexts = []

        class Traced(partition._SearchContext):
            def __init__(self, *args):
                super().__init__(*args)
                contexts.append(weakref.ref(self))

        monkeypatch.setattr(partition, "_SearchContext", Traced)
        gc.disable()
        try:
            for max_nodes in (3, 20_000):
                mip_partition(model, cm, 2, 2, BW, max_nodes=max_nodes)
            assert len(contexts) == 2
            assert all(ref() is None for ref in contexts)
        finally:
            gc.enable()


class TestSearchSpace:
    @pytest.mark.parametrize("topology_name", ["topo_4_4", "topo_2_2", "topo_1_3", "topo_4"])
    def test_max_stage_len_is_the_longest_eq4_feasible_run(self, topology_name):
        """The DFS caps a stage at ``max_stage_len``; the warm start checks
        Eq. 4 per stage.  Both must describe one search space: the cap is
        exactly the longest run of Eq. 4-feasible lengths from each start."""
        from repro.core.partition import _SearchContext
        from repro.hardware import topology as topologies
        from repro.models.zoo import gpt2_small, gpt_3b, gpt_8b, gpt_15b, gpt_51b

        topology = getattr(topologies, topology_name)()
        n_gpus = topology.n_gpus
        for model in (gpt_3b(), gpt_8b(), gpt_15b(), gpt_51b(), gpt2_small()):
            for microbatch_size in (1, 2, 4, 8):
                cost_model = CostModel(topology.gpu_spec, microbatch_size)
                gpu_memory = cost_model.usable_gpu_bytes()
                ctx = _SearchContext(
                    model, cost_model, n_gpus, n_gpus, topology.pcie_bandwidth, gpu_memory
                )
                for start in range(model.n_layers):
                    run = 0
                    for stop in range(start + 1, model.n_layers + 1):
                        if mem_peak(cost_model.stage_cost(model, start, stop), n_gpus) > gpu_memory:
                            break
                        run = stop - start
                    assert ctx.max_stage_len(start) == run, (
                        model.name, microbatch_size, start
                    )

    @pytest.mark.parametrize("topology_name", ["topo_4_4", "topo_2_2", "topo_1_3", "topo_4"])
    def test_stage_table_records_equal_stage_cost_aggregates(self, topology_name):
        """Every record of the search's stage table is its StageCost's
        aggregates: floats bit for bit, integers exactly, and the Eq. 4 bit
        equal to ``mem_peak(M) <= G``."""
        from repro.core.partition import _SearchContext
        from repro.core.timing import _bwd_upload_bytes
        from repro.hardware import topology as topologies
        from repro.models.zoo import gpt2_small, gpt_3b, gpt_8b, gpt_15b, gpt_51b

        topology = getattr(topologies, topology_name)()
        m = topology.n_gpus
        bandwidth = topology.pcie_bandwidth
        for model in (gpt_3b(), gpt_8b(), gpt_15b(), gpt_51b(), gpt2_small()):
            for microbatch_size in (1, 2, 4, 8):
                cost_model = CostModel(topology.gpu_spec, microbatch_size)
                gpu_memory = cost_model.usable_gpu_bytes()
                ctx = _SearchContext(model, cost_model, m, m, bandwidth, gpu_memory)
                # CostModel.stage_cost's stages, from one tuple of layer costs.
                layer_costs = tuple(cost_model.layer_cost(layer) for layer in model.layers)
                for start in range(model.n_layers):
                    input_act = model.layers[max(start - 1, 0)].activation_bytes(microbatch_size)
                    for stop in range(start + 1, model.n_layers + 1):
                        cost = StageCost(layer_costs[start:stop], input_act)
                        fwd, bwd, param, param_latency, out_latency, mem_fwd, mem_bwd, upload, ok = (
                            ctx.table[start][stop]
                        )
                        assert (
                            fwd.hex(), bwd.hex(), param_latency.hex(), out_latency.hex()
                        ) == (
                            cost.fwd_seconds.hex(),
                            cost.bwd_seconds.hex(),
                            (cost.param_bytes / bandwidth).hex(),
                            (cost.output_activation_bytes / bandwidth).hex(),
                        ), (model.name, microbatch_size, start, stop)
                        assert (param, mem_fwd, mem_bwd, upload, ok) == (
                            cost.param_bytes,
                            cost.mem_fwd(m),
                            cost.mem_bwd(m),
                            _bwd_upload_bytes(cost, m),
                            mem_peak(cost, m) <= gpu_memory,
                        ), (model.name, microbatch_size, start, stop)
