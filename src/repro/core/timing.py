"""Analytic Mobius pipeline timing — the MIP objective (Eqs. 3-11).

Given a candidate partition's stage records, this module computes the exact
earliest-start schedule of the Mobius pipeline under an *average bandwidth*
assumption (the constant ``B`` of Table 2): forward/backward start times per
stage and microbatch, prefetch-limited stage readiness, and the resulting
step time ``t_{1,M}^b + T_1^b``.

The recurrence implements the paper's constraint system directly:

* Eq. 4  — stage footprints must fit in GPU memory (else infeasible);
* Eq. 5  — prefetch is capped by the memory reserved next to the currently
  executing stage, ``P_j <= G - S_{j-N}``;
* Eq. 6  — prefetch is capped by what the bandwidth can deliver during the
  preceding stage's execution window, ``P_j <= B * D_{j-N}``;
* Eq. 7  — ``D_j = T_j + t_{j,M} - t_{j,1}``;
* Eq. 8  — activations (activation gradients) must arrive from the previous
  (next) stage before a microbatch executes;
* Eq. 9  — a stage starts once its non-prefetched remainder is uploaded;
* Eq. 10 — microbatches of one stage execute serially on its GPU;
* Eq. 11 — backward begins after forward completes.

The same GPU executes stages ``j, j+N, j+2N, ...``, which adds the implicit
serial constraint that stage ``j`` cannot start before stage ``j-N``
finishes — this is also when stage ``j-N``'s memory is released.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

from repro.models.costmodel import StageCost

__all__ = [
    "PipelineTimings",
    "StageRecord",
    "evaluate_pipeline",
    "prefetch_budgets",
    "stage_record",
]

# One stage record: the aggregates of one stage that the timing kernel
# reads, in this field order.  ``B``, ``M`` and ``G`` are the bandwidth,
# microbatch count and GPU memory the record was built for.
#
#   0 fwd_seconds      per-microbatch forward seconds
#   1 bwd_seconds      per-microbatch backward seconds
#   2 param_bytes      FP16 parameter (upload) bytes
#   3 param_latency    param_bytes / B
#   4 out_latency      output activation bytes / B
#   5 mem_fwd          Eq. 4's forward footprint S^f at M microbatches
#   6 mem_bwd          Eq. 4's backward footprint S^b at M microbatches
#   7 upload_bwd       bytes re-uploaded before a swapped-out backward:
#                      FP16 params plus M stashed input activations
#   8 feasible         max(mem_fwd, mem_bwd) <= G
#
# Plain tuples, because the hot loops unpack them (a tuple unpack is one
# bytecode; attribute reads on a record class cost one lookup per field).
StageRecord = tuple[float, float, int, float, float, int, int, int, bool]


def stage_record(
    cost: StageCost, n_microbatches: int, bandwidth: float, gpu_memory: int
) -> StageRecord:
    """The :data:`StageRecord` of one :class:`StageCost`, for callers that
    hold stage costs rather than the partition search's stage table."""
    m = n_microbatches
    param_bytes = cost.param_bytes
    mem_fwd = cost.mem_fwd(m)
    mem_bwd = cost.mem_bwd(m)
    return (
        cost.fwd_seconds,
        cost.bwd_seconds,
        param_bytes,
        param_bytes / bandwidth,
        cost.output_activation_bytes / bandwidth,
        mem_fwd,
        mem_bwd,
        param_bytes + m * cost.input_activation_bytes,
        mem_fwd <= gpu_memory and mem_bwd <= gpu_memory,
    )


@dataclasses.dataclass
class PipelineTimings:
    """Result of evaluating one candidate plan analytically.

    Attributes:
        feasible: Whether every stage fits in GPU memory.
        infeasible_reason: Human-readable explanation when not feasible.
        step_seconds: End-to-end step time (``inf`` when infeasible).
        t_fwd: ``t_fwd[j][m]`` start time of stage ``j`` forward on
            microbatch ``m`` (0-based).
        t_bwd: Backward start times, same shape.
        prefetch_fwd_bytes: Memory-capped prefetch budget per stage.
        prefetch_bwd_bytes: Same for the backward sweep.
    """

    feasible: bool
    step_seconds: float
    t_fwd: list[list[float]] = dataclasses.field(default_factory=list)
    t_bwd: list[list[float]] = dataclasses.field(default_factory=list)
    prefetch_fwd_bytes: tuple[int, ...] = ()
    prefetch_bwd_bytes: tuple[int, ...] = ()
    infeasible_reason: str = ""


def _infeasible(reason: str) -> PipelineTimings:
    return PipelineTimings(feasible=False, step_seconds=math.inf, infeasible_reason=reason)


def prefetch_budgets(
    stages: Sequence[StageRecord], n_gpus: int, gpu_memory: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Memory-capped prefetch budgets (Eq. 5) for forward and backward.

    Stage ``j``'s forward prefetch shares the GPU with stage ``j - N``'s
    forward footprint; its backward prefetch shares with stage ``j + N``'s
    backward footprint.  The top ``N`` stages stay resident between forward
    and backward, so their backward budget is irrelevant (set to 0).
    """
    s = len(stages)
    fwd = [0] * s
    bwd = [0] * s
    for j in range(s):
        upload_fwd = stages[j][2]  # param_bytes
        if j >= n_gpus:
            room = gpu_memory - stages[j - n_gpus][5]  # mem_fwd
            fwd[j] = max(0, min(upload_fwd, room))
        else:
            fwd[j] = upload_fwd  # uploaded before the pipeline starts
        if j < s - n_gpus:
            upload_bwd = stages[j][7]  # upload_bwd
            room = gpu_memory - stages[j + n_gpus][6]  # mem_bwd
            bwd[j] = max(0, min(upload_bwd, room))
    return tuple(fwd), tuple(bwd)


def evaluate_pipeline(
    stages: Sequence[StageRecord],
    n_gpus: int,
    n_microbatches: int,
    bandwidth: float,
    gpu_memory: int,
    *,
    include_initial_upload: bool = True,
) -> PipelineTimings:
    """Evaluate the Mobius pipeline schedule for one candidate plan.

    Args:
        stages: Per-stage records, forward order, built for this
            ``n_microbatches`` and ``bandwidth`` (the partition search's
            stage table, or :func:`stage_record` of each stage cost).
        n_gpus: ``N``; stage ``j`` runs on the GPU owning residue ``j % N``.
        n_microbatches: ``M`` (Mobius uses M = N).
        bandwidth: Average per-GPU communication bandwidth ``B`` in bytes/s.
        gpu_memory: Usable per-GPU memory ``G`` in bytes.
        include_initial_upload: Whether the first ``N`` stages' upload time
            counts toward the step (off when modelling steady state where
            step ``k+1``'s uploads overlap step ``k``'s tail).

    Returns:
        The timing table; ``step_seconds`` is ``inf`` when infeasible.
    """
    s = len(stages)
    m = n_microbatches
    if s == 0:
        return _infeasible("no stages")
    if n_gpus <= 0 or m <= 0 or bandwidth <= 0 or gpu_memory <= 0:
        raise ValueError("n_gpus, n_microbatches, bandwidth, gpu_memory must be positive")

    # Eq. 4: every stage must fit while executing.
    for j, stage in enumerate(stages):
        for phase, needed in (("fwd", stage[5]), ("bwd", stage[6])):
            if needed > gpu_memory:
                return _infeasible(
                    f"stage {j} {phase} footprint {needed / 1e9:.2f}GB exceeds "
                    f"GPU memory {gpu_memory / 1e9:.2f}GB"
                )

    pf_fwd, pf_bwd = prefetch_budgets(stages, n_gpus, gpu_memory)

    t_fwd = [[0.0] * m for _ in range(s)]
    d_fwd = [0.0] * s  # Eq. 7 execution windows
    end_fwd = [0.0] * s

    for j in range(s):
        fwd_seconds, _, param_bytes, param_latency, _, _, _, _, _ = stages[j]
        if j:
            t_prev = stages[j - 1][0]  # fwd_seconds
            act_latency = stages[j - 1][4]  # out_latency
        else:
            t_prev = act_latency = 0.0

        # Readiness: stage data present in GPU memory (Eqs. 5, 6, 9).
        if j < n_gpus:
            ready = param_latency if include_initial_upload else 0.0
            gpu_free = 0.0
        else:
            window = d_fwd[j - n_gpus]
            prefetched = min(pf_fwd[j], bandwidth * window)
            remaining = param_bytes - prefetched
            gpu_free = end_fwd[j - n_gpus]
            ready = gpu_free + max(0.0, remaining) / bandwidth

        row = t_fwd[j]
        prev_row = t_fwd[j - 1] if j else None
        for mb in range(m):
            start = ready if mb == 0 else row[mb - 1] + fwd_seconds
            if mb == 0:
                start = max(start, gpu_free)
            if prev_row is not None:
                start = max(start, prev_row[mb] + t_prev + act_latency)
            row[mb] = start
        end_fwd[j] = row[m - 1] + fwd_seconds
        d_fwd[j] = fwd_seconds + row[m - 1] - row[0]

    t_bwd = [[0.0] * m for _ in range(s)]
    d_bwd = [0.0] * s
    end_bwd = [0.0] * s

    for j in range(s - 1, -1, -1):
        _, bwd_seconds, _, _, out_latency, _, _, upload_bwd, _ = stages[j]
        if j < s - 1:
            t_next = stages[j + 1][1]  # bwd_seconds
            grad_latency = out_latency
        else:
            t_next = grad_latency = 0.0

        if j >= s - n_gpus:
            # Resident tail: stayed in GPU memory after its forward (Eq. 11).
            ready = end_fwd[j]
            gpu_free = end_fwd[j]
        else:
            window = d_bwd[j + n_gpus]
            prefetched = min(pf_bwd[j], bandwidth * window)
            remaining = upload_bwd - prefetched
            gpu_free = end_bwd[j + n_gpus]
            ready = gpu_free + max(0.0, remaining) / bandwidth

        row = t_bwd[j]
        next_row = t_bwd[j + 1] if j < s - 1 else None
        for mb in range(m):
            start = ready if mb == 0 else row[mb - 1] + bwd_seconds
            if mb == 0:
                start = max(start, gpu_free)
            if next_row is not None:
                start = max(start, next_row[mb] + t_next + grad_latency)
            row[mb] = start
        end_bwd[j] = row[m - 1] + bwd_seconds
        d_bwd[j] = bwd_seconds + row[m - 1] - row[0]

    # Objective (Eq. 3): start of first stage's backward on the last
    # microbatch plus its backward duration.
    step = t_bwd[0][m - 1] + stages[0][1]
    return PipelineTimings(
        feasible=True,
        step_seconds=step,
        t_fwd=t_fwd,
        t_bwd=t_bwd,
        prefetch_fwd_bytes=pf_fwd,
        prefetch_bwd_bytes=pf_bwd,
    )
