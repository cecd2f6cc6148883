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
``B_{i,j}`` MILP lives in the test suite (``tests/core/literal_mip.py``),
where HiGHS solves it as the parity oracle for this search.

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
from repro.models.costmodel import CostModel, LayerCost, StageCost, ordered_sum
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


# One stage record of the search's stage table: the aggregates of stage
# ``[start, stop)`` that the search reads, in this field order.
#
#   0 fwd_seconds      per-microbatch forward seconds
#   1 bwd_seconds      per-microbatch backward seconds
#   2 param_bytes      FP16 parameter (upload) bytes
#   3 param_latency    param_bytes / B
#   4 out_latency      output activation bytes / B
#   5 mem_fwd          Eq. 4's forward footprint S^f at M microbatches
#   6 mem_bwd          Eq. 4's backward footprint S^b at M microbatches
#   7 upload_bwd       bytes re-uploaded before a swapped-out backward
#   8 feasible         max(mem_fwd, mem_bwd) <= G
#
# Plain tuples, because the hot loops unpack them (a tuple unpack is one
# bytecode; attribute reads on a record class cost one lookup per field).
_StageRecord = tuple[float, float, int, float, float, int, int, int, bool]

# Fills each row below its start, so ``row[stop]`` indexes by stop directly.
_PAD: _StageRecord = (math.nan, math.nan, 0, math.nan, math.nan, 0, 0, 0, False)


def _stage_rows(
    layer_costs: Sequence[LayerCost], m: int, bandwidth: float, gpu_memory: int
) -> tuple[list[list[_StageRecord]], list[int]]:
    """The stage table and the longest memory-feasible stage per start.

    ``rows[start][stop]`` is the :data:`_StageRecord` of ``[start, stop)``
    for every ``stop`` in ``start+1..L`` (lower entries are padding).  Each
    row is one scan that grows the stage a layer at a time with running
    aggregates, in the order and arithmetic of :class:`StageCost`: left-fold
    float sums (:func:`ordered_sum`) and exact integer memory terms, so a
    record equals its StageCost's aggregates bit for bit.
    """
    n_layers = len(layer_costs)
    fwds = [c.fwd_seconds for c in layer_costs]
    bwds = [c.bwd_seconds for c in layer_costs]
    params = [c.param_bytes for c in layer_costs]
    acts = [c.activation_bytes for c in layer_costs]
    works = [c.working_bytes for c in layer_costs]
    rows: list[list[_StageRecord]] = []
    max_len: list[int] = []
    for start in range(n_layers):
        input_act = acts[start - 1] if start > 0 else acts[0]
        stash = m * input_act
        prev_act = input_act
        fwd = bwd = 0.0
        param = intra = max_work = rolling = 0
        length = 0
        row: list[_StageRecord] = [_PAD] * (start + 1)
        for j in range(start, n_layers):
            act, work = acts[j], works[j]
            fwd += fwds[j]
            bwd += bwds[j]
            param += params[j]
            intra += act
            if work > max_work:
                max_work = work
            window = prev_act + act + work
            if window > rolling:
                rolling = window
            prev_act = act
            mem_fwd = param + stash + rolling
            mem_bwd = 2 * param + stash + intra + max_work + act
            feasible = mem_fwd <= gpu_memory and mem_bwd <= gpu_memory
            if feasible and length == j - start:
                length += 1
            row.append((
                fwd, bwd, param, param / bandwidth, act / bandwidth,
                mem_fwd, mem_bwd, param + stash, feasible,
            ))
        rows.append(row)
        max_len.append(length)
    return rows, max_len


class _SearchContext:
    """Shared state for the boundary branch-and-bound.

    The search reads stages only through the stage table
    (:func:`_stage_rows`), built once per context; :class:`StageCost`
    objects are built by :meth:`evaluate` alone, for the plan it times.
    """

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
        self._score_cache: dict[tuple[int, ...], float] = {}
        self._children_cache: dict[int, tuple[tuple[int, float, float], ...]] = {}
        layer_costs = tuple(cost_model.layer_cost(layer) for layer in model.layers)
        self._layer_costs = layer_costs
        self.table, self._max_len = _stage_rows(
            layer_costs, n_microbatches, bandwidth, gpu_memory
        )
        self.fwd_suffix = [0.0] * (model.n_layers + 1)
        for i in range(model.n_layers - 1, -1, -1):
            self.fwd_suffix[i] = self.fwd_suffix[i + 1] + layer_costs[i].fwd_seconds
        self.total_bwd = ordered_sum(c.bwd_seconds for c in layer_costs)
        self.max_layer_bwd = max((c.bwd_seconds for c in layer_costs), default=0.0)
        # score()'s two forward stacks, each with the stops of the stages on
        # it.  A stack holds the table, not this context, so the two form no
        # reference cycle and a context dies with its last reference.
        self._score_stacks = tuple((_ForwardStack(self), []) for _ in range(2))

    def max_stage_len(self, start: int) -> int:
        """Longest memory-feasible stage beginning at layer ``start``: the
        run of Eq. 4-feasible records from ``start+1`` on."""
        return self._max_len[start]

    def children(self, start: int) -> tuple[tuple[int, float, float], ...]:
        """The DFS's children of a prefix ending at ``start``, in visit order.

        One ``(stop, fwd_seconds, bwd_seconds)`` triple per memory-feasible
        next stage ``[start, stop)``, balanced sizes first for early good
        incumbents.  The order depends on ``start`` only, so it is built
        once per start and shared by every prefix that ends there.
        """
        cached = self._children_cache.get(start)
        if cached is not None:
            return cached
        max_len = self._max_len[start]
        remaining = self.model.n_layers - start
        preferred = max(1, round(remaining / max(1, round(remaining / max(1, max_len)))))
        sizes = sorted(
            range(1, min(max_len, remaining) + 1),
            key=lambda k: abs(k - preferred),
        )
        row = self.table[start]
        children = []
        for size in sizes:
            stage = row[start + size]
            children.append((start + size, stage[0], stage[1]))  # fwd, bwd
        cached = self._children_cache[start] = tuple(children)
        return cached

    def score(
        self, boundaries: Sequence[int], cutoff: float = math.inf, stack: int = 0
    ) -> float:
        """Step seconds of a full boundary set, ``inf`` if a stage overflows.

        The one scoring kernel of the warm start and the hill-climb.  It
        checks Eq. 4 per stage as :func:`evaluate_pipeline` does, then runs
        the forward sweep stage by stage through :meth:`_ForwardStack.push`
        and the backward sweep through :meth:`_ForwardStack.step_time`:
        the same arithmetic in the same order, so the float is bit-identical
        to ``evaluate(boundaries).step_seconds`` without building the
        timing table.

        A caller that only asks whether the step is below ``cutoff`` gets a
        cut answer: pushing stops at the first prefix whose push bound is
        at least ``cutoff + 1e-12`` (the DFS's prune test), and that bound
        is returned.  It is at least the cutoff, and the step is at least
        the bound less a few ulps (proof in :meth:`_ForwardStack.push`), so
        the step is at least the cutoff too.  Any score below the cutoff
        is exact.  Eq. 4 is checked before any push, so an infeasible set
        is exactly ``inf`` whatever the cutoff.

        ``stack`` picks one of two forward stacks.  A stack keeps the stages
        the candidate shares with the previous one scored on it (a stage's
        forward state depends only on the stages before it), so only the
        differing suffix is checked, popped and pushed: a hill-climb move
        of boundary ``i`` re-pushes stages ``i`` on, not the whole plan.
        Exact scores are memoised per boundary tuple, since a hill-climb
        revisits the tuples its undone moves left behind; cut ones are not.
        """
        key = tuple(boundaries)
        cached = self._score_cache.get(key)
        if cached is not None:
            return cached
        forward, kept = self._score_stacks[stack]
        stops = (*key, self.model.n_layers)
        keep = 0
        limit = min(len(kept), len(stops))
        while keep < limit and kept[keep] == stops[keep]:
            keep += 1
        # Stages on the stack passed the Eq. 4 check (field 8) when pushed.
        table = self.table
        starts = (0, *key)
        if not all(table[a][b][8] for a, b in zip(starts[keep:], stops[keep:])):
            self._score_cache[key] = math.inf
            return math.inf
        for _ in range(len(kept) - keep):
            forward.pop()
        del kept[keep:]
        prune = cutoff + 1e-12
        for a, b in zip(starts[keep:], stops[keep:]):
            bound = forward.push(a, b)
            kept.append(b)
            if bound >= prune:
                return bound
        step = self._score_cache[key] = forward.step_time()
        return step

    def evaluate(self, boundaries: Sequence[int]) -> PipelineTimings:
        """The full Eq. 4-11 timing table of one boundary set.

        Not memoised: the search ranks candidates with :meth:`score`, so
        :func:`mip_partition` builds this table once per solve, for the
        partition it returns (the baselines likewise build one each).
        These are the only :class:`StageCost` objects a solve builds.
        """
        layer_costs = self._layer_costs
        costs = [
            StageCost(layer_costs[a:b], layer_costs[a - 1 if a else 0].activation_bytes)
            for a, b in zip((0, *boundaries), (*boundaries, self.model.n_layers))
        ]
        return evaluate_pipeline(
            costs, self.n_gpus, self.n_microbatches, self.bandwidth, self.gpu_memory
        )


class _ForwardStack:
    """Incremental forward schedule of the DFS's current stage prefix.

    The old bound re-ran the full Eq. 4-11 forward recurrence over the whole
    prefix at every node (O(prefix * M) per node, quadratic down a DFS
    path).  The DFS pushes/pops one stage at a time, so this stack extends
    the parent's forward state by exactly one stage in O(M): it replays the
    same arithmetic :func:`evaluate_pipeline`'s forward sweep would perform
    for that stage, against the retained forward state of earlier stages.
    Bounds are therefore bit-identical to the full re-evaluation, and every
    pruning decision is unchanged.

    Each stage is one frame ``(record, row, end_fwd, d_fwd, max_bwd)``: its
    stage-table record, its forward start times per microbatch, its forward
    finish on the last microbatch, its Eq. 7 window, and the running
    maximum of stage ``bwd_seconds`` over the prefix.  The stack copies the
    context's scalars and table rather than referring to the context.
    """

    def __init__(self, ctx: _SearchContext) -> None:
        self._table = ctx.table
        self._n_gpus = ctx.n_gpus
        self._m = ctx.n_microbatches
        self._bandwidth = ctx.bandwidth
        self._gpu_memory = ctx.gpu_memory
        self._fwd_suffix = ctx.fwd_suffix
        self._total_bwd = ctx.total_bwd
        # The bubble term of push()'s bound is seeded with the largest single
        # layer's bwd_seconds.
        self._max_layer_bwd = ctx.max_layer_bwd
        self._frames: list[tuple[_StageRecord, list[float], float, float, float]] = []
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
        record = self._table[start][stop]
        fwd_seconds, bwd_seconds, param_bytes, param_latency, _, _, _, _, _ = record
        m = self._m
        n_gpus = self._n_gpus
        frames = self._frames
        k = len(frames)
        if k:
            prev_record, prev_row, _, _, max_bwd = frames[-1]
            t_prev = prev_record[0]  # fwd_seconds
            act_latency = prev_record[4]  # out_latency
        else:
            max_bwd = self._max_layer_bwd
            prev_row = None
        if k < n_gpus:
            ready = param_latency
            gpu_free = 0.0
        else:
            bandwidth = self._bandwidth
            resident, _, gpu_free, window, _ = frames[k - n_gpus]
            room = self._gpu_memory - resident[5]  # mem_fwd
            prefetch = max(0, min(param_bytes, room))
            prefetched = min(prefetch, bandwidth * window)
            remaining = param_bytes - prefetched
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
        if bwd_seconds > max_bwd:
            max_bwd = bwd_seconds
        frames.append((record, row, end, fwd_seconds + row[m - 1] - row[0], max_bwd))
        return end + self._fwd_suffix[stop] + self._total_bwd + (m - 1) * max_bwd

    def tail(self) -> tuple[float, float]:
        """``(arrival, max_bwd)`` that :meth:`push` would use for the next
        stage's last microbatch and bubble term (the prefix must be
        non-empty).

        ``arrival`` is computed exactly as :meth:`push` computes the
        mb = M-1 activation arrival, ``(row[M-1] + T_prev) + latency``,
        because ``end_fwd`` of the last stage is ``row[M-1] + T_prev``.
        """
        record, _, end, _, max_bwd = self._frames[-1]
        return end + record[4], max_bwd  # out_latency

    def pop(self) -> None:
        self._frames.pop()

    def step_time(self) -> float:
        """Exact step time of the *complete* partition on the stack.

        Runs only the backward sweep of Eqs. 4-11 — the forward sweep was
        already accumulated push by push — so a DFS leaf costs O(S*M)
        instead of a full :func:`evaluate_pipeline` over the whole plan.
        Bit-identical to ``evaluate_pipeline(...).step_seconds`` (same
        arithmetic in the same order on the same forward state).
        """
        frames = self._frames
        s = len(frames)
        m = self._m
        n_gpus = self._n_gpus
        bandwidth = self._bandwidth
        gpu_memory = self._gpu_memory
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
            record, _, end_fwd, _, _ = frames[j]
            _, bwd_seconds, _, _, grad_latency, _, _, upload, _ = record
            if j >= boundary:
                ready = end_fwd
                gpu_free = ready
            else:
                window = d_bwd[j + n_gpus]
                room = gpu_memory - frames[j + n_gpus][0][6]  # mem_bwd
                prefetch = max(0, min(upload, room))
                prefetched = min(prefetch, bandwidth * window)
                remaining = upload - prefetched
                gpu_free = end_bwd[j + n_gpus]
                ready = gpu_free + max(0.0, remaining) / bandwidth
            start_t = ready
            if gpu_free > start_t:
                start_t = gpu_free
            if j < last:
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


# score()'s stack for the balanced candidates; the derived candidates and
# the hill-climb share the default stack 0.
_BALANCED_STACK = 1


def _balanced_boundaries(n_layers: int, n_stages: int) -> list[int]:
    return [round(n_layers * i / n_stages) for i in range(1, n_stages)]


def _local_search(
    ctx: _SearchContext, boundaries: list[int], best_time: float
) -> tuple[list[int], float]:
    """Hill-climb by moving single boundaries; returns the local optimum.

    A move is scored with the threshold it must beat as its cutoff, so a
    move that cannot win stops at the first prefix that shows it.
    """
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
                step = ctx.score(candidate, best_time - 1e-12)
                if step < best_time - 1e-12:
                    current, best_time, improved = candidate, step, True
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

    Only a score that can change the answer is computed exactly (the cutoff
    of :meth:`_SearchContext.score`).  A round with both candidates scores
    the derived one first, exactly, on the default stack, where it shares
    its prefix with the previous round's derived candidate.  The balanced
    split follows on its own stack, cut at the derived score: it wins only
    if its step is at most that score (ties go to it).  A round with one
    candidate is cut at ``best_time``, since only a lower score changes
    ``best`` and ``previous`` keeps only the boundaries.  Every comparison
    thus has the outcome it has on exact scores, and the incumbent is the
    same, bit for bit.
    """
    n_layers = ctx.model.n_layers
    best: list[int] | None = None
    best_time = math.inf
    previous: list[int] | None = None
    for n_stages in range(max(1, ctx.n_gpus), n_layers + 1):
        balanced = _balanced_boundaries(n_layers, n_stages)
        derived = None
        if previous is not None and len(previous) == n_stages - 2:
            derived = _split_longest_stage(previous, n_layers)
        if derived is None:
            round_best = balanced
            round_time = ctx.score(balanced, best_time, _BALANCED_STACK)
        else:
            derived_time = ctx.score(derived)
            balanced_time = ctx.score(balanced, derived_time, _BALANCED_STACK)
            if derived_time < balanced_time:
                round_best, round_time = derived, derived_time
            else:
                round_best, round_time = balanced, balanced_time
        if round_time < math.inf:
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

    Below the root a child is first tested against an O(1) relaxation of
    its push bound: ``push`` starts the child's last microbatch no earlier
    than its activation arrival (:meth:`_ForwardStack.tail`), so replacing
    that start by the arrival and adding the remaining terms in ``push``'s
    order gives a float at most the push bound, because IEEE addition is
    monotone (``a <= b`` implies ``fl(a + c) <= fl(b + c)``).  The
    relaxation therefore prunes only children the push bound prunes, and
    the search visits the same nodes as one that pushes every child.

    This is the partition search behind every plan.  The test suite's
    oracle (``tests/core/literal_mip.py``) solves the same problem as the
    paper's literal MIP with HiGHS and requires both to return the same
    step time and boundaries on the check corpus.

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
    fwd_suffix = ctx.fwd_suffix
    total_bwd = ctx.total_bwd
    bubble = n_microbatches - 1
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

    def expand(cuts: list[int]) -> None:
        """Search the children of a counted node whose bound is still open.

        A child is entered inline: the budget and clock checks, the node
        count, then the prune.  Tied subtrees (bound within 1e-12 of the
        incumbent) stay open so the canonical optimum survives regardless
        of which tie was the incumbent first.  Below the root, the O(1)
        relaxation ``relaxed`` prunes most children before their O(M)
        push; it is at most the push bound bit for bit, so it prunes only
        children the push bound would prune (argument in the docstring of
        :func:`mip_partition`).
        """
        nonlocal incumbent, incumbent_time, nodes, exhausted, cut_bound
        start = cuts[-1]
        depth = len(cuts) - 1
        if depth:
            arrival, max_bwd = stack.tail()
        for stop, fwd, bwd in ctx.children(start):
            if depth:
                relaxed = (
                    arrival + fwd + fwd_suffix[stop] + total_bwd
                    + bubble * (bwd if bwd > max_bwd else max_bwd)
                )
            if stop == n_layers:
                # Leaf: the forward sweep is already on the stack, so the
                # exact step time only needs the backward half (O(S*M)
                # instead of a full evaluate_pipeline).  Memory feasibility
                # is guaranteed — every stage's length was capped by
                # max_stage_len on the way down.  The push bound is a valid
                # lower bound on this completed partition's step, so leaves
                # that cannot beat (or tie) the incumbent skip the backward
                # sweep entirely.
                if depth and relaxed >= incumbent_time + 1e-12:
                    continue
                if stack.push(start, stop) < incumbent_time + 1e-12:
                    step = stack.step_time()
                    boundaries = cuts[1:]
                    if better(step, boundaries):
                        incumbent = list(boundaries)
                        incumbent_time = min(incumbent_time, step)
                stack.pop()
                continue
            # The node budget is the primary (deterministic) work limit; the
            # wall-clock check is a safety ceiling that under the default
            # budgets never binds first, keeping results machine-independent.
            # A cut child is still pushed: its exact bound certifies the gap.
            if nodes >= max_nodes or time.perf_counter() - started > time_limit:
                exhausted = False
                cut_bound = min(cut_bound, stack.push(start, stop))
                stack.pop()
                continue
            nodes += 1
            if depth and relaxed >= incumbent_time + 1e-12:
                continue
            if stack.push(start, stop) < incumbent_time + 1e-12:
                cuts.append(stop)
                expand(cuts)
                cuts.pop()
            stack.pop()

    root_bound = ctx.fwd_suffix[0] + total_bwd + bubble * ctx.max_layer_bwd
    if nodes >= max_nodes or time.perf_counter() - started > time_limit:
        exhausted = False
        cut_bound = root_bound
    else:
        nodes += 1
        if root_bound < incumbent_time + 1e-12:
            expand([0])
    # expand() reaches itself through its closure cell: a reference cycle
    # that would keep the context and its stage table alive until the
    # cyclic collector runs.  Unbinding it frees them when the solve returns.
    del expand

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
