"""Model partition algorithms (§3.2 and the §4.3 ablation baselines).

The production path solves the paper's partitioning problem as a
branch-and-bound search over contiguous stage boundaries.  Each node fixes a
prefix of stages; its objective is evaluated with the exact pipeline-timing
recurrence (:mod:`repro.core.timing`, Eqs. 4-11), and subtrees are pruned
with an admissible bound (the last microbatch still has to traverse every
remaining layer forward and the whole model backward, and the backward
pipeline bubble adds ``M-1`` backwards of the slowest stage).  This *is*
a mixed-integer optimisation: integer decisions (stage boundaries) +
linear timing constraints, solved exactly when the node/time budget
allows.  This search is the only planner; the paper's literal boolean
``B_{i,j}`` MILP lives in :mod:`repro.core.mip_formulation`, where HiGHS
solves it as the test suite's parity oracle for this search.

Baselines of §4.3:

* **maximum-stage** — each stage packs as many layers as fit in GPU memory,
  leaving no room for prefetching;
* **minimum-stage** — one transformer block per stage (auxiliary layers are
  merged into the first/last stage), maximising activation traffic.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections.abc import Sequence

from repro.core.plan import Partition
from repro.core.timing import PipelineTimings, evaluate_pipeline
from repro.models.costmodel import CostModel, StageCost
from repro.models.spec import LayerKind, ModelSpec

__all__ = [
    "PartitionResult",
    "PlanInfeasibleError",
    "mip_partition",
    "max_stage_partition",
    "min_stage_partition",
]


class PlanInfeasibleError(ValueError):
    """No memory-feasible plan exists for the given model and resources.

    Raised by every partitioner when the search space is empty — e.g. a
    single layer exceeds GPU memory, or (after a GPU dropout) the surviving
    N-1 devices cannot hold any stage split.  A typed error lets callers —
    the experiment runner and the chaos harness — distinguish "recovery is
    physically impossible" from a planner bug; it subclasses ``ValueError``
    for backward compatibility with callers catching the generic form.
    """


@dataclasses.dataclass
class PartitionResult:
    """A partition plus how it was obtained.

    Attributes:
        partition: The chosen partition.
        timings: Analytic timings of the chosen partition.
        solve_seconds: Wall time spent searching.
        nodes_explored: Branch-and-bound nodes (0 for baselines).
        optimal: Whether the search ran to completion (exact optimum) or
            stopped on the budget with the best incumbent.
        method: ``"mip"``, ``"max-stage"`` or ``"min-stage"``.
        lower_bound: Certified lower bound on the optimal step seconds: the
            minimum of the incumbent's step and the bounds of the subtrees
            the budget cut off.  ``nan`` for the baselines, which search
            nothing.
        gap: Relative optimality gap,
            ``(step_seconds - lower_bound) / step_seconds``; 0 for an
            exhausted search, ``nan`` for the baselines.
    """

    partition: Partition
    timings: PipelineTimings
    solve_seconds: float
    nodes_explored: int
    optimal: bool
    method: str
    lower_bound: float = math.nan
    gap: float = math.nan


class _SearchContext:
    """Shared state for the boundary branch-and-bound."""

    def __init__(
        self,
        model: ModelSpec,
        cost_model: CostModel,
        n_gpus: int,
        n_microbatches: int,
        bandwidth: float,
        gpu_memory: int,
    ) -> None:
        self.model = model
        self.n_gpus = n_gpus
        self.n_microbatches = n_microbatches
        self.bandwidth = bandwidth
        self.gpu_memory = gpu_memory
        self._stage_cache: dict[tuple[int, int], StageCost] = {}
        self._eval_cache: dict[tuple[int, ...], PipelineTimings] = {}
        self._max_len_cache: dict[int, int] = {}
        layer_costs = tuple(cost_model.layer_cost(layer) for layer in model.layers)
        # Every StageCost of the search slices this one tuple, so stages share
        # their LayerCost objects instead of each building its own.
        self._layer_costs = layer_costs
        # Per-layer aggregate arrays: stage aggregates become running sums,
        # so memory feasibility and the DFS bound never rebuild StageCost
        # objects layer by layer.
        self._layer_param = [c.param_bytes for c in layer_costs]
        self._layer_act = [c.activation_bytes for c in layer_costs]
        self._layer_work = [c.working_bytes for c in layer_costs]
        self.fwd_suffix = [0.0] * (model.n_layers + 1)
        for i in range(model.n_layers - 1, -1, -1):
            self.fwd_suffix[i] = self.fwd_suffix[i + 1] + layer_costs[i].fwd_seconds
        self.total_bwd = sum(c.bwd_seconds for c in layer_costs)
        self.max_layer_bwd = max((c.bwd_seconds for c in layer_costs), default=0.0)

    def stage_cost(self, start: int, stop: int) -> StageCost:
        key = (start, stop)
        cached = self._stage_cache.get(key)
        if cached is None:
            cached = StageCost(self._layer_costs[start:stop], self._input_act(start))
            self._stage_cache[key] = cached
        return cached

    def _input_act(self, start: int) -> int:
        return self._layer_act[start - 1] if start > 0 else self._layer_act[0]

    def max_stage_len(self, start: int) -> int:
        """Longest memory-feasible stage beginning at layer ``start``.

        Grows the stage one layer at a time with running aggregates, so the
        scan is O(layers) and matches :meth:`StageCost.mem_peak` exactly
        (same integer arithmetic on the same per-layer terms).
        """
        cached = self._max_len_cache.get(start)
        if cached is not None:
            return cached
        m = self.n_microbatches
        stash = m * self._input_act(start)
        prev_act = self._input_act(start)
        param = intra = max_work = rolling = 0
        length = 0
        for stop in range(start + 1, self.model.n_layers + 1):
            j = stop - 1
            act, work = self._layer_act[j], self._layer_work[j]
            param += self._layer_param[j]
            intra += act
            max_work = max(max_work, work)
            rolling = max(rolling, prev_act + act + work)
            prev_act = act
            mem_fwd = param + stash + rolling
            mem_bwd = 2 * param + stash + intra + max_work + act
            if max(mem_fwd, mem_bwd) <= self.gpu_memory:
                length = stop - start
            else:
                break
        self._max_len_cache[start] = length
        return length

    def evaluate(self, boundaries: Sequence[int]) -> PipelineTimings:
        """Exact pipeline timings for a full boundary set, memoized.

        The warm start, local search and branch-and-bound all revisit the
        same boundary tuples (a hill-climb step undone, a DFS leaf reached
        through a different prefix), so each distinct tuple is evaluated
        through the Eq. 4-11 recurrence exactly once per search context.
        """
        key = tuple(boundaries)
        cached = self._eval_cache.get(key)
        if cached is None:
            costs = [
                self.stage_cost(a, b)
                for a, b in zip((0, *key), (*key, self.model.n_layers))
            ]
            cached = evaluate_pipeline(
                costs, self.n_gpus, self.n_microbatches, self.bandwidth, self.gpu_memory
            )
            self._eval_cache[key] = cached
        return cached


class _ForwardStack:
    """Incremental forward schedule of the DFS's current stage prefix.

    The old bound re-ran the full Eq. 4-11 forward recurrence over the whole
    prefix at every node (O(prefix * M) per node, quadratic down a DFS
    path).  The DFS pushes/pops one stage at a time, so this stack extends
    the parent's forward state by exactly one stage in O(M): it replays the
    same arithmetic :func:`evaluate_pipeline`'s forward sweep would perform
    for that stage, against the retained ``end/d/t_fwd`` of earlier stages.
    Bounds are therefore bit-identical to the full re-evaluation, and every
    pruning decision is unchanged.
    """

    def __init__(self, ctx: _SearchContext) -> None:
        self._ctx = ctx
        self._stages: list[StageCost] = []
        self._rows: list[list[float]] = []
        self._end_fwd: list[float] = []
        self._d_fwd: list[float] = []
        # Running maximum of stage bwd_seconds over the prefix, seeded with
        # the largest single layer's (the bubble term of push()'s bound).
        self._max_bwd: list[float] = [ctx.max_layer_bwd]
        # Rolling row buffers for step_time(): the backward sweep only ever
        # reads rows j and j+1, so leaves reuse two fixed buffers instead of
        # allocating an S x M matrix per leaf.
        self._row_a = [0.0] * ctx.n_microbatches
        self._row_b = [0.0] * ctx.n_microbatches

    def push(self, start: int, stop: int) -> float:
        """Append stage ``[start, stop)``; return the new prefix bound.

        The bound is ``end_p + F + sum_j bwd_j + (M-1) * b``, where ``end_p``
        is the prefix's exact forward finish on the last microbatch, ``F``
        the remaining layers' forward seconds, and ``b`` the larger of the
        biggest single-layer ``bwd_seconds`` and the biggest stage
        ``bwd_seconds`` of the prefix.

        It is admissible, i.e. at most the step time of every completion
        of the prefix.  Let a completion have stages ``0..S-1`` and let
        ``t^b_{j,m}`` be backward start times.

        * Forward (Eq. 8): ``t^f_{j+1,M} >= t^f_{j,M} + fwd_j``, so the
          last stage's forward ends at ``end_fwd[S-1] >= end_p + F``.
        * Eq. 11: the last stage's backward cannot start before its
          forward ends, so ``t^b_{S-1,1} >= end_fwd[S-1]``.
        * Pick any stage ``k``.  Walk down microbatch 1 from stage ``S-1``
          to ``k``; each step costs ``bwd_{j+1}`` (Eq. 8).  Then walk along
          stage ``k``'s microbatches; each step costs ``bwd_k`` (Eq. 10).
          Then walk down microbatch ``M`` from ``k`` to stage 0 (Eq. 8).
          The step ends ``bwd_0`` after ``t^b_{0,M}`` (Eq. 3).

        Summing the walk gives
        ``step >= end_fwd[S-1] + sum_j bwd_j + (M-1) * bwd_k`` for every
        ``k``.  Every stage of the prefix is a stage of the completion.
        So is the stage that holds the model's slowest-backward layer, and
        a stage's ``bwd_seconds`` is at least that of each of its layers.
        Hence ``(M-1) * b`` is at most ``(M-1) * max_k bwd_k`` and the
        bound holds.  Communication terms only delay starts, so dropping
        them keeps it a lower bound.  Per-layer and per-stage float sums
        may differ by a few ulps; the DFS's 1e-12 pruning margin absorbs
        that.
        """
        ctx = self._ctx
        cost = ctx.stage_cost(start, stop)
        m = ctx.n_microbatches
        bandwidth = ctx.bandwidth
        k = len(self._stages)
        fwd_seconds = cost.fwd_seconds
        if k:
            prev = self._stages[-1]
            t_prev = prev.fwd_seconds
            act_latency = prev.output_activation_bytes / bandwidth
            prev_row = self._rows[-1]
        else:
            t_prev = 0.0
            act_latency = 0.0
            prev_row = None
        if k < ctx.n_gpus:
            ready = cost.param_bytes / bandwidth
            gpu_free = 0.0
        else:
            window = self._d_fwd[k - ctx.n_gpus]
            room = ctx.gpu_memory - self._stages[k - ctx.n_gpus].mem_fwd(m)
            prefetch = max(0, min(cost.param_bytes, room))
            prefetched = min(prefetch, bandwidth * window)
            remaining = cost.param_bytes - prefetched
            gpu_free = self._end_fwd[k - ctx.n_gpus]
            ready = gpu_free + max(0.0, remaining) / bandwidth

        # The mb loop is the search's hottest arithmetic; max() is unrolled
        # into comparisons (bit-identical, including ties) and the mb == 0
        # special case is peeled out of the loop.
        row = [0.0] * m
        start_t = ready
        if gpu_free > start_t:
            start_t = gpu_free
        if prev_row is not None:
            arrival = prev_row[0] + t_prev + act_latency
            if arrival > start_t:
                start_t = arrival
            row[0] = start_t
            for mb in range(1, m):
                chained = start_t + fwd_seconds
                arrival = prev_row[mb] + t_prev + act_latency
                start_t = arrival if arrival > chained else chained
                row[mb] = start_t
        else:
            row[0] = start_t
            for mb in range(1, m):
                start_t = start_t + fwd_seconds
                row[mb] = start_t
        end = start_t + fwd_seconds
        self._stages.append(cost)
        self._rows.append(row)
        self._end_fwd.append(end)
        self._d_fwd.append(fwd_seconds + row[m - 1] - row[0])
        max_bwd = self._max_bwd[-1]
        if cost.bwd_seconds > max_bwd:
            max_bwd = cost.bwd_seconds
        self._max_bwd.append(max_bwd)
        return end + ctx.fwd_suffix[stop] + ctx.total_bwd + (m - 1) * max_bwd

    def pop(self) -> None:
        self._stages.pop()
        self._rows.pop()
        self._end_fwd.pop()
        self._d_fwd.pop()
        self._max_bwd.pop()

    def step_time(self) -> float:
        """Exact step time of the *complete* partition on the stack.

        Runs only the backward sweep of Eqs. 4-11 — the forward sweep was
        already accumulated push by push — so a DFS leaf costs O(S*M)
        instead of a full :func:`evaluate_pipeline` over the whole plan.
        Bit-identical to ``evaluate_pipeline(...).step_seconds`` (same
        arithmetic in the same order on the same forward state).
        """
        ctx = self._ctx
        costs = self._stages
        s = len(costs)
        m = ctx.n_microbatches
        n_gpus = ctx.n_gpus
        bandwidth = ctx.bandwidth
        gpu_memory = ctx.gpu_memory
        end_fwd = self._end_fwd
        d_bwd = [0.0] * s
        end_bwd = [0.0] * s
        # Only rows j and j+1 are ever live, so two reusable buffers replace
        # the S x M matrix; max() is unrolled into comparisons and mb == 0
        # peeled, exactly as in push() — ties and operation order preserved.
        row = self._row_a
        next_row = self._row_b
        boundary = s - n_gpus
        last = s - 1
        t_next = 0.0
        for j in range(last, -1, -1):
            cost = costs[j]
            bwd_seconds = cost.bwd_seconds
            if j >= boundary:
                ready = end_fwd[j]
                gpu_free = ready
            else:
                window = d_bwd[j + n_gpus]
                upload = cost.param_bytes + m * cost.input_activation_bytes
                room = gpu_memory - costs[j + n_gpus].mem_bwd(m)
                prefetch = max(0, min(upload, room))
                prefetched = min(prefetch, bandwidth * window)
                remaining = upload - prefetched
                gpu_free = end_bwd[j + n_gpus]
                ready = gpu_free + max(0.0, remaining) / bandwidth
            start_t = ready
            if gpu_free > start_t:
                start_t = gpu_free
            if j < last:
                grad_latency = cost.output_activation_bytes / bandwidth
                arrival = next_row[0] + t_next + grad_latency
                if arrival > start_t:
                    start_t = arrival
                first = start_t
                row[0] = first
                for mb in range(1, m):
                    chained = start_t + bwd_seconds
                    arrival = next_row[mb] + t_next + grad_latency
                    start_t = arrival if arrival > chained else chained
                    row[mb] = start_t
            else:
                first = start_t
                row[0] = first
                for mb in range(1, m):
                    start_t = start_t + bwd_seconds
                    row[mb] = start_t
            end_bwd[j] = start_t + bwd_seconds
            d_bwd[j] = bwd_seconds + start_t - first
            row, next_row = next_row, row
            t_next = bwd_seconds
        return end_bwd[0]


def _balanced_boundaries(n_layers: int, n_stages: int) -> list[int]:
    return [round(n_layers * i / n_stages) for i in range(1, n_stages)]


def _local_search(
    ctx: _SearchContext, boundaries: list[int], best_time: float
) -> tuple[list[int], float]:
    """Hill-climb by moving single boundaries; returns the local optimum."""
    improved = True
    current = list(boundaries)
    while improved:
        improved = False
        for index in range(len(current)):
            for delta in (-1, 1):
                candidate = list(current)
                candidate[index] += delta
                lo = candidate[index - 1] if index else 0
                hi = candidate[index + 1] if index + 1 < len(candidate) else ctx.model.n_layers
                if not lo < candidate[index] < hi:
                    continue
                timings = ctx.evaluate(candidate)
                if timings.feasible and timings.step_seconds < best_time - 1e-12:
                    current, best_time, improved = candidate, timings.step_seconds, True
    return current, best_time


def _split_longest_stage(boundaries: list[int], n_layers: int) -> list[int] | None:
    """Derive an ``n+1``-stage candidate by halving the longest stage."""
    cuts = [0, *boundaries, n_layers]
    longest = max(range(len(cuts) - 1), key=lambda i: (cuts[i + 1] - cuts[i], -i))
    lo, hi = cuts[longest], cuts[longest + 1]
    if hi - lo < 2:
        return None
    candidate = sorted([*boundaries, (lo + hi) // 2])
    return candidate


def _warm_start(ctx: _SearchContext) -> tuple[list[int] | None, float]:
    """Best near-balanced partition over all stage counts, refined locally.

    The stage-count sweep re-uses the previous count's solve: alongside the
    balanced split, each count also tries the previous best with its longest
    stage halved, so a good ``n``-stage plan seeds the ``n+1``-stage
    candidate instead of every count starting from scratch.
    """
    n_layers = ctx.model.n_layers
    best: list[int] | None = None
    best_time = math.inf
    previous: list[int] | None = None
    for n_stages in range(max(1, ctx.n_gpus), n_layers + 1):
        candidates = [_balanced_boundaries(n_layers, n_stages)]
        if previous is not None and len(previous) == n_stages - 2:
            derived = _split_longest_stage(previous, n_layers)
            if derived is not None:
                candidates.append(derived)
        round_best: list[int] | None = None
        round_time = math.inf
        for boundaries in candidates:
            timings = ctx.evaluate(boundaries)
            if timings.feasible and timings.step_seconds < round_time:
                round_best, round_time = boundaries, timings.step_seconds
        if round_best is not None:
            previous = round_best
            if round_time < best_time:
                best, best_time = round_best, round_time
    if best is not None:
        best, best_time = _local_search(ctx, best, best_time)
    return best, best_time


def mip_partition(
    model: ModelSpec,
    cost_model: CostModel,
    n_gpus: int,
    n_microbatches: int,
    bandwidth: float,
    *,
    gpu_memory: int | None = None,
    time_limit: float = 10.0,
    max_nodes: int = 20_000,
) -> PartitionResult:
    """The MIP partition algorithm (§3.2).

    A depth-first branch-and-bound over stage boundaries, seeded with the
    :func:`_warm_start` incumbent.  A prefix is pruned when its bound (the
    exact forward finish so far, the remaining forward, the whole backward
    and the backward pipeline bubble; proof in :meth:`_ForwardStack.push`)
    is at least the incumbent plus 1e-12.  When the node budget cuts the
    search short, the bounds of the subtrees it cut off still certify how
    far the incumbent can be from the optimum (``lower_bound``/``gap``).

    This is the partition search behind every plan.
    :func:`repro.core.mip_formulation.solve_partition_mip` solves the same
    problem as the paper's literal MIP with HiGHS; the test suite requires
    both to return the same step time and boundaries on the check corpus.

    Args:
        model: Model to partition.
        cost_model: Layer cost source (typically built from a
            :class:`~repro.models.profiler.ProfileReport`).
        n_gpus: ``N``.
        n_microbatches: ``M`` (Mobius uses M = N).
        bandwidth: Average per-GPU communication bandwidth ``B``.
        gpu_memory: Usable GPU bytes ``G``; defaults to the cost model's
            device minus framework overhead.
        time_limit: Wall-clock safety ceiling in seconds.  The
            deterministic ``max_nodes`` budget is the primary limit; the
            clock only stops a search on hardware far slower than the
            calibration machine, so results are normally independent of it.
        max_nodes: Deterministic node budget — the binding work limit.

    Returns:
        The best partition found; ``optimal`` reports whether the search
        completed, ``lower_bound`` and ``gap`` how far from optimal the
        partition can be (``gap == 0`` when it completed).

    Raises:
        PlanInfeasibleError: If no memory-feasible partition exists.
    """
    if gpu_memory is None:
        gpu_memory = cost_model.usable_gpu_bytes()
    ctx = _SearchContext(model, cost_model, n_gpus, n_microbatches, bandwidth, gpu_memory)
    started = time.perf_counter()

    incumbent, incumbent_time = _warm_start(ctx)

    nodes = 0
    exhausted = True
    cut_bound = math.inf  # smallest bound of a subtree the budget cut off
    n_layers = model.n_layers
    stack = _ForwardStack(ctx)

    def better(step_seconds: float, boundaries: Sequence[int]) -> bool:
        """Canonical incumbent comparison: step time, then boundary tuple.

        Ties (within 1e-12) prefer the lexicographically smaller boundary
        tuple, which makes an exhausted search's optimum independent of
        which tie :func:`_warm_start` seeded as the incumbent.
        """
        if step_seconds < incumbent_time - 1e-12:
            return True
        if step_seconds < incumbent_time + 1e-12:
            return incumbent is None or tuple(boundaries) < tuple(incumbent)
        return False

    def dfs(cuts: list[int], bound: float) -> None:
        nonlocal incumbent, incumbent_time, nodes, exhausted, cut_bound
        # The node budget is the primary (deterministic) work limit; the
        # wall-clock check is a safety ceiling that under the default
        # budgets never binds first, keeping results machine-independent.
        if nodes >= max_nodes or time.perf_counter() - started > time_limit:
            exhausted = False
            cut_bound = min(cut_bound, bound)
            return
        nodes += 1
        start = cuts[-1]
        # Tied subtrees (bound within 1e-12 of the incumbent) stay open so
        # the canonical optimum survives regardless of which tie was the
        # incumbent first.
        if bound >= incumbent_time + 1e-12:
            return
        max_len = ctx.max_stage_len(start)
        remaining = n_layers - start
        # Child ordering: balanced sizes first for early good incumbents.
        preferred = max(1, round(remaining / max(1, round(remaining / max(1, max_len)))))
        sizes = sorted(
            range(1, min(max_len, remaining) + 1),
            key=lambda k: abs(k - preferred),
        )
        for size in sizes:
            stop = start + size
            if stop == n_layers:
                # Leaf: the forward sweep is already on the stack, so the
                # exact step time only needs the backward half (O(S*M)
                # instead of a full evaluate_pipeline).  Memory feasibility
                # is guaranteed — every stage's length was capped by
                # max_stage_len on the way down.  The push bound is a valid
                # lower bound on this completed partition's step, so leaves
                # that cannot beat (or tie) the incumbent skip the backward
                # sweep entirely.
                leaf_bound = stack.push(start, stop)
                if leaf_bound < incumbent_time + 1e-12:
                    step = stack.step_time()
                    boundaries = cuts[1:]
                    if better(step, boundaries):
                        incumbent = list(boundaries)
                        incumbent_time = min(incumbent_time, step)
                stack.pop()
            else:
                cuts.append(stop)
                dfs(cuts, stack.push(start, stop))
                stack.pop()
                cuts.pop()

    dfs([0], ctx.fwd_suffix[0] + ctx.total_bwd + (n_microbatches - 1) * ctx.max_layer_bwd)

    if incumbent is None:
        raise PlanInfeasibleError(
            f"no memory-feasible partition of {model.name} for "
            f"G={gpu_memory / 1e9:.1f}GB, M={n_microbatches}"
        )
    partition = Partition(model, tuple(incumbent))
    timings = ctx.evaluate(incumbent)
    lower_bound = min(timings.step_seconds, cut_bound)
    return PartitionResult(
        partition=partition,
        timings=timings,
        solve_seconds=time.perf_counter() - started,
        nodes_explored=nodes,
        optimal=exhausted,
        method="mip",
        lower_bound=lower_bound,
        gap=(timings.step_seconds - lower_bound) / timings.step_seconds,
    )


def max_stage_partition(
    model: ModelSpec,
    cost_model: CostModel,
    n_gpus: int,
    n_microbatches: int,
    bandwidth: float,
    *,
    gpu_memory: int | None = None,
) -> PartitionResult:
    """Greedy baseline: each stage packs as many layers as fit in memory."""
    if gpu_memory is None:
        gpu_memory = cost_model.usable_gpu_bytes()
    ctx = _SearchContext(model, cost_model, n_gpus, n_microbatches, bandwidth, gpu_memory)
    started = time.perf_counter()
    boundaries: list[int] = []
    position = 0
    while position < model.n_layers:
        length = ctx.max_stage_len(position)
        if length == 0:
            raise PlanInfeasibleError(
                f"layer {position} of {model.name} alone exceeds GPU memory"
            )
        position += length
        if position < model.n_layers:
            boundaries.append(position)
    partition = Partition(model, tuple(boundaries))
    return PartitionResult(
        partition=partition,
        timings=ctx.evaluate(boundaries),
        solve_seconds=time.perf_counter() - started,
        nodes_explored=0,
        optimal=True,
        method="max-stage",
    )


def min_stage_partition(
    model: ModelSpec,
    cost_model: CostModel,
    n_gpus: int,
    n_microbatches: int,
    bandwidth: float,
    *,
    gpu_memory: int | None = None,
) -> PartitionResult:
    """Baseline: one transformer block per stage.

    Auxiliary layers (embedding, final norm, LM head) are merged into the
    adjacent block's stage, matching the paper's description of the
    minimum-stage scheme in terms of transformer blocks.
    """
    if gpu_memory is None:
        gpu_memory = cost_model.usable_gpu_bytes()
    ctx = _SearchContext(model, cost_model, n_gpus, n_microbatches, bandwidth, gpu_memory)
    started = time.perf_counter()
    boundaries = []
    seen_block = False
    for index, layer in enumerate(model.layers):
        if layer.kind != LayerKind.TRANSFORMER_BLOCK:
            continue
        if seen_block and index > 0:
            boundaries.append(index)
        seen_block = True
    partition = Partition(model, tuple(boundaries))
    timings = ctx.evaluate(boundaries)
    if not timings.feasible:
        raise PlanInfeasibleError(
            f"minimum-stage partition of {model.name} infeasible: "
            f"{timings.infeasible_reason}"
        )
    return PartitionResult(
        partition=partition,
        timings=timings,
        solve_seconds=time.perf_counter() - started,
        nodes_explored=0,
        optimal=True,
        method="min-stage",
    )
