"""The Mobius pipeline: heterogeneous-memory pipeline execution (§3.1).

Turns an :class:`~repro.core.plan.ExecutionPlan` into a simulator task graph
implementing the schedule of Figure 4:

* stage parameters live in DRAM and are uploaded ("swapped in") to their
  GPU before execution; the upload is split into a *prefetch* part that
  overlaps the preceding stage's execution in reserved memory, and a
  *remainder* that must wait until the preceding stage frees its memory;
* each stage runs its M microbatches serially (Eq. 10), forwarding
  activations to the next stage's GPU (through DRAM — no GPUDirect P2P on
  commodity servers);
* stashed input activations (recompute checkpoints) are offloaded after
  forward and re-uploaded before backward for swapped-out stages;
* the top N stages stay resident between forward and backward (Eq. 11);
* FP16 gradients are offloaded to DRAM after each stage's backward, where
  the (CPU) optimizer updates the FP32 master copy;
* prefetches carry priorities: the earlier-starting stage preempts
  (``cudaStreamCreateWithPriority`` in the real system, §3.3).
"""

from __future__ import annotations

import dataclasses

from repro.core.labels import (
    activation_label,
    bwd_upload_label,
    compute_label,
    fwd_upload_label,
    grad_offload_label,
    stash_offload_label,
)
from repro.core.plan import ExecutionPlan
from repro.hardware.topology import Topology
from repro.models.costmodel import CostModel, StageCost
from repro.sim.tasks import TaskGraphRunner, TaskTable
from repro.sim.trace import Trace

__all__ = ["MobiusRun", "build_mobius_tasks", "simulate_mobius"]

#: Inter-stage activation traffic is latency-critical: highest priority.
ACTIVATION_PRIORITY = 1_000_000
#: Background offloads (gradients, activation stash) yield to everything.
OFFLOAD_PRIORITY = -1


@dataclasses.dataclass
class MobiusRun:
    """Result of simulating one Mobius training step."""

    plan: ExecutionPlan
    trace: Trace

    @property
    def step_seconds(self) -> float:
        return self.trace.makespan


def build_mobius_tasks(
    plan: ExecutionPlan,
    topology: Topology,
    stage_costs: list[StageCost],
    *,
    prefetch: bool = True,
    use_priorities: bool = True,
    table: TaskTable | None = None,
) -> TaskTable:
    """Emit the task graph of one Mobius training step.

    Args:
        plan: Partition + mapping + prefetch budgets.
        topology: Server interconnect (paths and contention).
        stage_costs: Per-stage aggregates matching ``plan.partition``.
        prefetch: Disable to force every upload to wait for the preceding
            stage to finish (the no-overlap ablation).
        use_priorities: Disable the §3.3 prefetch priorities (all prefetch
            flows share bandwidth equally).
        table: Append the step's rows to this table (a fresh one by
            default); the step's rows are contiguous.
    """
    s = plan.n_stages
    n = plan.n_gpus
    m = plan.n_microbatches
    if len(stage_costs) != s:
        raise ValueError(f"need {s} stage costs, got {len(stage_costs)}")

    if table is None:
        table = TaskTable()
    compute = table.compute
    transfer = table.transfer

    def fwd_prefetch_priority(stage: int) -> int:
        return (s - stage) if use_priorities else 0

    def bwd_prefetch_priority(stage: int) -> int:
        return (stage + 1) if use_priorities else 0

    gpu = [plan.mapping.gpu_of_stage(j) for j in range(s)]
    resident = lambda j: j >= s - n  # stays on GPU between fwd and bwd
    activation_priority = ACTIVATION_PRIORITY if use_priorities else 0

    # ------------------------------------------------------------------
    # Forward sweep
    # ------------------------------------------------------------------
    upload_done_fwd = [0] * s
    fwd = [[0] * m for _ in range(s)]
    act_out = [[0] * m for _ in range(s)]

    for j in range(s):
        cost = stage_costs[j]
        path = topology.path_from_dram(gpu[j])
        priority = fwd_prefetch_priority(j)
        if j < n:
            # Initial stages: uploaded before the pipeline starts.
            upload_done_fwd[j] = transfer(
                path,
                cost.param_bytes,
                gpu[j],
                "param-upload",
                priority,
                label=fwd_upload_label(j),
            )
        else:
            budget = plan.prefetch_fwd_bytes[j] if prefetch else 0
            pre_bytes = min(budget, cost.param_bytes)
            rem_bytes = cost.param_bytes - pre_bytes
            # Eq. 6 / Figure 4: the prefetch window is stage j-N's execution
            # on this GPU — it opens once that stage starts computing.
            pre = transfer(
                path,
                pre_bytes,
                gpu[j],
                "param-upload",
                priority,
                label=fwd_upload_label(j, "pre"),
                after=(fwd[j - n][0],),
            )
            # The remainder needs stage j-n's memory, free after its last
            # forward microbatch.
            upload_done_fwd[j] = transfer(
                path,
                rem_bytes,
                gpu[j],
                "param-upload",
                priority,
                label=fwd_upload_label(j, "rem"),
                after=(pre, fwd[j - n][m - 1]),
            )

        for mb in range(m):
            deps = [upload_done_fwd[j]]
            if mb:
                deps.append(fwd[j][mb - 1])
            if j:
                deps.append(act_out[j - 1][mb])
            fwd[j][mb] = work = compute(
                gpu[j], cost.fwd_seconds, label=compute_label("F", j, mb), after=deps
            )
            # Ship the output activation to the next stage's GPU.
            if j + 1 < s and gpu[j] != gpu[j + 1]:
                act_out[j][mb] = transfer(
                    topology.gpu_to_gpu_path(gpu[j], gpu[j + 1]),
                    cost.output_activation_bytes,
                    gpu[j + 1],
                    "activation",
                    activation_priority,
                    label=activation_label("A", j, mb),
                    after=(work,),
                )
            else:
                act_out[j][mb] = work
            # Offload the recompute checkpoint for swapped-out stages.
            if not resident(j):
                transfer(
                    topology.path_to_dram(gpu[j]),
                    cost.input_activation_bytes,
                    gpu[j],
                    "act-offload",
                    OFFLOAD_PRIORITY,
                    label=stash_offload_label(j, mb),
                    after=(work,),
                )

    # ------------------------------------------------------------------
    # Backward sweep
    # ------------------------------------------------------------------
    upload_done_bwd = [0] * s
    bwd = [[0] * m for _ in range(s)]
    grad_in = [[0] * m for _ in range(s)]

    for j in range(s - 1, -1, -1):
        cost = stage_costs[j]
        path = topology.path_from_dram(gpu[j])
        priority = bwd_prefetch_priority(j)
        if resident(j):
            upload_done_bwd[j] = fwd[j][m - 1]  # data never left the GPU
        else:
            stash_bytes = m * cost.input_activation_bytes
            total = cost.param_bytes + stash_bytes
            budget = plan.prefetch_bwd_bytes[j] if prefetch else 0
            pre_bytes = min(budget, total)
            rem_bytes = total - pre_bytes
            # Split accounting between params and stashed activations.
            pre_param = min(pre_bytes, cost.param_bytes)
            pre_stash = pre_bytes - pre_param
            rem_param = cost.param_bytes - pre_param
            rem_stash = stash_bytes - pre_stash
            # Backward prefetch window: stage j+N's backward execution.
            prev_done = bwd[j + n][0]
            pre_rows: list[int] = []
            for nbytes, kind in ((pre_param, "param-upload"), (pre_stash, "act-upload")):
                if nbytes:
                    pre_rows.append(
                        transfer(
                            path,
                            nbytes,
                            gpu[j],
                            kind,
                            priority,
                            label=bwd_upload_label(j, "pre", kind),
                            after=(prev_done,),
                        )
                    )
            rem_deps = [*pre_rows, bwd[j + n][m - 1]]
            last: int | None = None
            for nbytes, kind in ((rem_param, "param-upload"), (rem_stash, "act-upload")):
                last = transfer(
                    path,
                    nbytes,
                    gpu[j],
                    kind,
                    priority,
                    label=bwd_upload_label(j, "rem", kind),
                    after=rem_deps if last is None else (last,),
                )
            upload_done_bwd[j] = last if last is not None else prev_done

        for mb in range(m):
            deps = [upload_done_bwd[j]]
            if mb:
                deps.append(bwd[j][mb - 1])
            if j + 1 < s:
                deps.append(grad_in[j + 1][mb])
            else:
                deps.append(fwd[j][m - 1])  # Eq. 11: backward after forward
            bwd[j][mb] = work = compute(
                gpu[j], cost.bwd_seconds, label=compute_label("B", j, mb), after=deps
            )
            if j and gpu[j] != gpu[j - 1]:
                grad_in[j][mb] = transfer(
                    topology.gpu_to_gpu_path(gpu[j], gpu[j - 1]),
                    cost.input_activation_bytes,
                    gpu[j - 1],
                    "activation",
                    activation_priority,
                    label=activation_label("G", j, mb),
                    after=(work,),
                )
            else:
                grad_in[j][mb] = work

        # Offload this stage's FP16 gradients for the CPU optimizer.
        transfer(
            topology.path_to_dram(gpu[j]),
            cost.grad_bytes,
            gpu[j],
            "grad-offload",
            OFFLOAD_PRIORITY,
            label=grad_offload_label(j),
            after=(bwd[j][m - 1],),
        )

    return table


def simulate_mobius(
    plan: ExecutionPlan,
    topology: Topology,
    cost_model: CostModel,
    *,
    prefetch: bool = True,
    use_priorities: bool = True,
) -> MobiusRun:
    """Simulate one Mobius training step on ``topology``."""
    stage_costs = plan.partition.stage_costs(cost_model)
    tasks = build_mobius_tasks(
        plan, topology, stage_costs, prefetch=prefetch, use_priorities=use_priorities
    )
    trace = TaskGraphRunner(topology).execute(tasks)
    return MobiusRun(plan=plan, trace=trace)
