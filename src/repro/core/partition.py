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
from repro.core.timing import PipelineTimings, StageRecord, evaluate_pipeline
from repro.models.costmodel import CostModel, LayerCost, ordered_sum
from repro.models.spec import LayerKind, ModelSpec

__all__ = [
    "DEFAULT_MAX_NODES",
    "PartitionResult",
    "PlanInfeasibleError",
    "mip_partition",
    "max_stage_partition",
    "min_stage_partition",
]


#: :func:`mip_partition`'s node budget when the caller sets none.
DEFAULT_MAX_NODES = 20_000


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
    nodes_explored: int
    optimal: bool
    method: str
    lower_bound: float = math.nan
    gap: float = math.nan


# Fills each row below its start, so ``row[stop]`` indexes by stop directly.
_PAD: StageRecord = (math.nan, math.nan, 0, math.nan, math.nan, 0, 0, 0, False)


def _stage_rows(
    layer_costs: Sequence[LayerCost], m: int, bandwidth: float, gpu_memory: int
) -> tuple[list[list[StageRecord]], list[int]]:
    """The stage table and the longest memory-feasible stage per start.

    ``rows[start][stop]`` is the :data:`~repro.core.timing.StageRecord` of
    ``[start, stop)`` for every ``stop`` in ``start+1..L`` (lower entries
    are padding).  Each row is one scan that grows the stage a layer at a
    time with running aggregates, in the order and arithmetic of
    :class:`~repro.models.costmodel.StageCost`: left-fold float sums
    (:func:`ordered_sum`) and exact integer memory terms, so a record equals
    :func:`~repro.core.timing.stage_record` of its StageCost bit for bit.
    """
    n_layers = len(layer_costs)
    fwds = [c.fwd_seconds for c in layer_costs]
    bwds = [c.bwd_seconds for c in layer_costs]
    params = [c.param_bytes for c in layer_costs]
    acts = [c.activation_bytes for c in layer_costs]
    works = [c.working_bytes for c in layer_costs]
    rows: list[list[StageRecord]] = []
    max_len: list[int] = []
    for start in range(n_layers):
        input_act = acts[start - 1] if start > 0 else acts[0]
        stash = m * input_act
        prev_act = input_act
        fwd = bwd = 0.0
        param = intra = max_work = rolling = 0
        length = 0
        row: list[StageRecord] = [_PAD] * (start + 1)
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


# One child of a DFS node (:meth:`_SearchContext.children`):
# ``(stop, fwd_seconds, bwd_seconds, fwd_suffix[stop], (M-1) * bwd_seconds)``.
_Child = tuple[int, float, float, float, float]


class _SearchContext:
    """Shared state for the boundary branch-and-bound.

    The search, and :meth:`evaluate` after it, read stages only through
    the stage table (:func:`_stage_rows`), built once per context, so a
    solve builds no :class:`~repro.models.costmodel.StageCost`.  It rejects
    counts below 1, a bandwidth that is not finite and positive, and a GPU
    memory that is not positive with a ``ValueError`` naming the argument,
    before any search.
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
        if n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {n_gpus}")
        if n_microbatches < 1:
            raise ValueError(f"n_microbatches must be >= 1, got {n_microbatches}")
        if not (math.isfinite(bandwidth) and bandwidth > 0):
            raise ValueError(f"bandwidth must be finite and > 0, got {bandwidth}")
        if not gpu_memory > 0:
            raise ValueError(f"gpu_memory must be > 0, got {gpu_memory}")
        self.model = model
        self.n_gpus = n_gpus
        self.n_microbatches = n_microbatches
        self.bandwidth = bandwidth
        self.gpu_memory = gpu_memory
        self._score_cache: dict[tuple[int, ...], float] = {}
        self._children_cache: dict[int, tuple[_Child, ...]] = {}
        layer_costs = tuple(cost_model.layer_cost(layer) for layer in model.layers)
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

    def children(self, start: int) -> tuple[_Child, ...]:
        """The DFS's children of a prefix ending at ``start``, in visit order.

        One ``(stop, fwd_seconds, bwd_seconds, fwd_suffix[stop], (M-1) *
        bwd_seconds)`` entry per memory-feasible next stage ``[start,
        stop)``, balanced sizes first for early good incumbents: the stage's
        terms of the DFS's O(1) relaxation, with its one product taken
        here.  The order depends on ``start`` only, so it is built once per
        start and shared by every prefix that ends there.
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
        fwd_suffix = self.fwd_suffix
        bubble = self.n_microbatches - 1
        children = []
        for size in sizes:
            stop = start + size
            fwd, bwd = row[stop][0], row[stop][1]
            children.append((stop, fwd, bwd, fwd_suffix[stop], bubble * bwd))
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
        """The full Eq. 4-11 timing table of one boundary set, over its
        stage-table records.

        Not memoised: the search ranks candidates with :meth:`score`, so
        :func:`mip_partition` builds this table once per solve, for the
        partition it returns (the baselines likewise build one each).
        """
        table = self.table
        stages = [
            table[a][b]
            for a, b in zip((0, *boundaries), (*boundaries, self.model.n_layers))
        ]
        return evaluate_pipeline(
            stages, self.n_gpus, self.n_microbatches, self.bandwidth, self.gpu_memory
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

    Each stage is one frame ``(record, ends, end, window, max_bwd)``: its
    stage-table record, its forward finish per microbatch, its forward
    finish on the last microbatch (``ends[M-1]``), its Eq. 7 window, and the
    running maximum of stage ``bwd_seconds`` over the prefix.  A finish
    ``ends[mb]`` is the float ``row[mb] + fwd_seconds`` that
    :func:`evaluate_pipeline` adds, both as the next microbatch's chained
    start and inside the next stage's activation arrival
    ``(row[mb] + T_prev) + latency``, so the next stage's arrival is
    ``ends[mb] + latency``, one addition.  The window ``T + row[M-1] -
    row[0]`` is ``end - first`` (``first`` the start of microbatch 0),
    because ``fl(a + b) == fl(b + a)``.  The stack copies the context's
    scalars and table rather than referring to the context.

    The prefetch windows (Eqs. 5, 6 and 9) are written as comparisons with
    the builtins' tie rule: ``min(a, b)`` keeps ``a`` unless ``b < a`` and
    ``max(a, b)`` keeps ``a`` unless ``b > a``, so every result, an integer
    byte count included, is the builtin's.
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
        self._frames: list[tuple[StageRecord, list[float], float, float, float]] = []
        # Drops the top stage: the frame list's own pop, so a pop costs no
        # Python call frame.
        self.pop = self._frames.pop
        # Rolling buffers for step_time(): the backward sweep only ever reads
        # the finishes of stages j and j+1, so leaves reuse two fixed buffers
        # instead of allocating an S x M matrix per leaf.
        self._ends_a = [0.0] * ctx.n_microbatches
        self._ends_b = [0.0] * ctx.n_microbatches

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
            prev_record, prev_ends, _, _, max_bwd = frames[-1]
            act_latency = prev_record[4]  # out_latency
        else:
            max_bwd = self._max_layer_bwd
            prev_ends = None
        if k < n_gpus:
            ready = param_latency
            gpu_free = 0.0
        else:
            bandwidth = self._bandwidth
            resident, _, gpu_free, window, _ = frames[k - n_gpus]
            room = self._gpu_memory - resident[5]  # mem_fwd
            # max(0, min(param_bytes, room)), min(prefetch, B * window) and
            # max(0.0, remaining), with the builtins' tie rule.
            prefetch = room if room < param_bytes else param_bytes
            if not prefetch > 0:
                prefetch = 0
            deliverable = bandwidth * window
            prefetched = deliverable if deliverable < prefetch else prefetch
            remaining = param_bytes - prefetched
            if not remaining > 0.0:
                remaining = 0.0
            ready = gpu_free + remaining / bandwidth

        # The mb loop is the search's hottest arithmetic; max() is unrolled
        # into comparisons (bit-identical, including ties) and the mb == 0
        # special case is peeled out of the loop.
        ends = [0.0] * m
        first = ready
        if gpu_free > first:
            first = gpu_free
        if prev_ends is not None:
            arrival = prev_ends[0] + act_latency
            if arrival > first:
                first = arrival
            end = first + fwd_seconds
            ends[0] = end
            for mb in range(1, m):
                arrival = prev_ends[mb] + act_latency
                end = (arrival if arrival > end else end) + fwd_seconds
                ends[mb] = end
        else:
            end = first + fwd_seconds
            ends[0] = end
            for mb in range(1, m):
                end = end + fwd_seconds
                ends[mb] = end
        if bwd_seconds > max_bwd:
            max_bwd = bwd_seconds
        frames.append((record, ends, end, end - first, max_bwd))
        return end + self._fwd_suffix[stop] + self._total_bwd + (m - 1) * max_bwd

    def tail(self) -> tuple[float, float]:
        """``(arrival, max_bwd)`` that :meth:`push` would use for the next
        stage's last microbatch and bubble term (the prefix must be
        non-empty).

        ``arrival`` is computed exactly as :meth:`push` computes the
        mb = M-1 activation arrival, ``ends[M-1] + latency``.
        """
        record, _, end, _, max_bwd = self._frames[-1]
        return end + record[4], max_bwd  # out_latency

    def step_time(self) -> float:
        """Exact step time of the *complete* partition on the stack.

        Runs only the backward sweep of Eqs. 4-11 — the forward sweep was
        already accumulated push by push — so a DFS leaf costs O(S*M)
        instead of a full :func:`evaluate_pipeline` over the whole plan.
        Bit-identical to ``evaluate_pipeline(...).step_seconds`` (same
        arithmetic in the same order on the same forward state; backward
        finishes and windows are kept as in :meth:`push`).
        """
        frames = self._frames
        s = len(frames)
        m = self._m
        n_gpus = self._n_gpus
        bandwidth = self._bandwidth
        gpu_memory = self._gpu_memory
        d_bwd = [0.0] * s
        end_bwd = [0.0] * s
        # Only the finishes of stages j and j+1 are ever live, so two
        # reusable buffers replace the S x M matrix; max() and min() are
        # unrolled into comparisons and mb == 0 peeled, exactly as in push().
        ends = self._ends_a
        next_ends = self._ends_b
        boundary = s - n_gpus
        last = s - 1
        for j in range(last, -1, -1):
            record, _, end_fwd, _, _ = frames[j]
            _, bwd_seconds, _, _, grad_latency, _, _, upload, _ = record
            if j >= boundary:
                ready = end_fwd
                gpu_free = ready
            else:
                window = d_bwd[j + n_gpus]
                room = gpu_memory - frames[j + n_gpus][0][6]  # mem_bwd
                prefetch = room if room < upload else upload
                if not prefetch > 0:
                    prefetch = 0
                deliverable = bandwidth * window
                prefetched = deliverable if deliverable < prefetch else prefetch
                remaining = upload - prefetched
                if not remaining > 0.0:
                    remaining = 0.0
                gpu_free = end_bwd[j + n_gpus]
                ready = gpu_free + remaining / bandwidth
            first = ready
            if gpu_free > first:
                first = gpu_free
            if j < last:
                arrival = next_ends[0] + grad_latency
                if arrival > first:
                    first = arrival
                end = first + bwd_seconds
                ends[0] = end
                for mb in range(1, m):
                    arrival = next_ends[mb] + grad_latency
                    end = (arrival if arrival > end else end) + bwd_seconds
                    ends[mb] = end
            else:
                end = first + bwd_seconds
                ends[0] = end
                for mb in range(1, m):
                    end = end + bwd_seconds
                    ends[mb] = end
            end_bwd[j] = end
            d_bwd[j] = end - first
            ends, next_ends = next_ends, ends
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


def _improves(
    step_seconds: float,
    boundaries: Sequence[int],
    incumbent: Sequence[int] | None,
    incumbent_time: float,
) -> bool:
    """Canonical incumbent comparison: step time, then boundary tuple.

    Ties (within 1e-12) prefer the lexicographically smaller boundary
    tuple, which makes an exhausted search's optimum independent of which
    tie :func:`_warm_start` seeded as the incumbent.
    """
    if step_seconds < incumbent_time - 1e-12:
        return True
    if step_seconds < incumbent_time + 1e-12:
        return incumbent is None or tuple(boundaries) < tuple(incumbent)
    return False


def mip_partition(
    model: ModelSpec,
    cost_model: CostModel,
    n_gpus: int,
    n_microbatches: int,
    bandwidth: float,
    *,
    gpu_memory: int | None = None,
    time_limit: float = 10.0,
    max_nodes: int = DEFAULT_MAX_NODES,
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

    The search is one loop over an explicit list of open nodes, each with
    its child iterator, its last stop and its relaxation terms, so a child
    costs no call frame.  Each child takes the same steps in the same
    order: leaf handling, then the node-budget and clock check, then the
    node count, then the relaxed prune, then the push.  A child whose push
    bound stays open is descended into before its next sibling, exactly
    as a recursive depth-first search would, and the prune threshold,
    ``incumbent + 1e-12``, is recomputed whenever the incumbent improves.

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
        ValueError: If ``n_gpus``, ``n_microbatches`` or ``max_nodes`` is
            below 1, ``bandwidth`` is not finite and positive, or
            ``gpu_memory`` is not positive.
    """
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    if gpu_memory is None:
        gpu_memory = cost_model.usable_gpu_bytes()
    ctx = _SearchContext(model, cost_model, n_gpus, n_microbatches, bandwidth, gpu_memory)
    started = time.perf_counter()

    incumbent, incumbent_time = _warm_start(ctx)

    nodes = 0
    exhausted = True
    cut_bound = math.inf  # smallest bound of a subtree the budget cut off
    threshold = incumbent_time + 1e-12  # a bound at least this is pruned
    n_layers = model.n_layers
    total_bwd = ctx.total_bwd
    bubble = n_microbatches - 1
    children = ctx.children
    stack = _ForwardStack(ctx)
    push, pop, step_time, tail = stack.push, stack.pop, stack.step_time, stack.tail

    # The open nodes, root first: ``(children, start, arrival, max_bwd,
    # bubble * max_bwd)``, the node's child iterator, its last stop and
    # the per-node terms of the O(1) relaxation (from its stack frame's
    # tail).  The root has no frame, so its arrival is -inf: the
    # relaxation never prunes a child of the root.
    open_nodes: list[tuple] = []
    root_bound = ctx.fwd_suffix[0] + total_bwd + bubble * ctx.max_layer_bwd
    if nodes >= max_nodes or time.perf_counter() - started > time_limit:
        exhausted = False
        cut_bound = root_bound
    else:
        nodes += 1
        if root_bound < threshold:
            max_bwd = ctx.max_layer_bwd
            open_nodes.append((iter(children(0)), 0, -math.inf, max_bwd, bubble * max_bwd))
    while open_nodes:
        kids, start, arrival, max_bwd, bubble_max = open_nodes[-1]
        for stop, fwd, bwd, fwd_suffix, bubbled in kids:
            relaxed = (
                arrival + fwd + fwd_suffix + total_bwd
                + (bubbled if bwd > max_bwd else bubble_max)
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
                if relaxed >= threshold:
                    continue
                if push(start, stop) < threshold:
                    step = step_time()
                    boundaries = [node[1] for node in open_nodes[1:]]
                    if _improves(step, boundaries, incumbent, incumbent_time):
                        incumbent = boundaries
                        if step < incumbent_time:
                            incumbent_time = step
                        threshold = incumbent_time + 1e-12
                pop()
                continue
            # The node budget is the primary (deterministic) work limit; the
            # wall-clock check is a safety ceiling that under the default
            # budgets never binds first, keeping results machine-independent.
            # A cut child is still pushed: its exact bound certifies the gap.
            if nodes >= max_nodes or time.perf_counter() - started > time_limit:
                exhausted = False
                bound = push(start, stop)
                if bound < cut_bound:
                    cut_bound = bound
                pop()
                continue
            nodes += 1
            if relaxed >= threshold:
                continue
            if push(start, stop) < threshold:
                # Descend: the child's subtree runs before its next sibling.
                arrival, max_bwd = tail()
                open_nodes.append((iter(children(stop)), stop, arrival, max_bwd, bubble * max_bwd))
                break
            pop()
        else:
            # Every child is done: the node's subtree closes.
            open_nodes.pop()
            if open_nodes:
                pop()

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
        nodes_explored=0,
        optimal=True,
        method="min-stage",
    )
