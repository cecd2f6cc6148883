"""GPipe and DeepSpeed-pipeline baselines: all-in-GPU-memory pipelines.

GPipe (Figure 3 of the paper) partitions the model into exactly ``N``
stages, one per GPU, keeps every stage *resident* (FP16 params, FP16 grads
and the FP32 Adam state all live in GPU memory — 16 bytes per parameter),
runs all forward microbatches then all backward microbatches, and needs no
parameter communication at all — only boundary activations cross GPUs.

DeepSpeed's pipeline-parallel mode is modelled as the same resident pipeline
with the 1F1B (one-forward-one-backward) schedule, which caps the activation
stash at the pipeline depth instead of the microbatch count.

Both run out of memory once ``16 * params / N`` outgrows GPU memory — the
paper's motivation for heterogeneous memory (the 3B model is the largest
these can train on 4x24GB GPUs).
"""

from __future__ import annotations

import dataclasses

from repro.core.plan import Mapping, Partition
from repro.core.timing import evaluate_pipeline, stage_record
from repro.hardware.topology import Topology
from repro.models.costmodel import STATE_BYTES_PER_PARAM, CostModel, StageCost
from repro.models.spec import ModelSpec
from repro.sim.tasks import TaskGraphRunner, TaskTable
from repro.sim.trace import Trace

__all__ = ["OutOfMemoryError", "PipelineBaselineReport", "run_gpipe", "run_deepspeed_pipeline"]

_ACT_PRIORITY = 1_000_000


class OutOfMemoryError(RuntimeError):
    """A resident pipeline stage does not fit in GPU memory."""


@dataclasses.dataclass
class PipelineBaselineReport:
    """Result of simulating one GPipe / DeepSpeed-pipeline step."""

    partition: Partition
    trace: Trace
    schedule: str  # "gpipe" or "1f1b"

    @property
    def step_seconds(self) -> float:
        return self.trace.makespan


def _static_stage_bytes(cost: StageCost, stash_microbatches: int) -> int:
    """Resident footprint: 16 B/param states + stash + transient peak."""
    return (
        cost.resident_bytes_static()
        + stash_microbatches * cost.input_activation_bytes
        + max(cost.rolling_buffer_bytes(), cost.intra_activation_bytes + cost.max_working_bytes)
    )


def _check_memory(
    stage_costs: list[StageCost],
    gpu_memory: int,
    n_microbatches: int,
    schedule: str,
    model_name: str,
) -> None:
    n_stages = len(stage_costs)
    for index, cost in enumerate(stage_costs):
        if schedule == "1f1b":
            stash = min(n_microbatches, n_stages - index)
        else:
            stash = n_microbatches
        needed = _static_stage_bytes(cost, stash)
        if needed > gpu_memory:
            raise OutOfMemoryError(
                f"{model_name} stage {index} needs {needed / 1e9:.1f}GB resident "
                f"({schedule}), GPU has {gpu_memory / 1e9:.1f}GB"
            )


def _check_total_memory(
    model: ModelSpec, cost_model: CostModel, n_stages: int, schedule: str
) -> None:
    """Fail before the partition search when no ``n_stages`` split can fit.

    The whole model's resident states are the sum of every stage's
    :meth:`StageCost.resident_bytes_static`, a lower bound on the stages'
    summed :func:`_static_stage_bytes`, so when they exceed ``n_stages``
    GPUs' worth of memory some stage of every partition fails
    :func:`_check_memory` (pigeonhole).
    """
    gpu_memory = cost_model.usable_gpu_bytes()
    needed = model.param_count * STATE_BYTES_PER_PARAM
    if needed > n_stages * gpu_memory:
        raise OutOfMemoryError(
            f"{model.name} needs {needed / 1e9:.1f}GB of resident states "
            f"({schedule}), {n_stages} GPUs have {n_stages * gpu_memory / 1e9:.1f}GB"
        )


def _balanced_partition(
    model: ModelSpec, cost_model: CostModel, n_stages: int, bandwidth: float
) -> Partition:
    """Compute-balanced contiguous partition into exactly ``n_stages``.

    Greedy balanced start + single-boundary hill-climb on the analytic
    resident-pipeline time (same approach production pipeline frameworks
    use for profiling-based auto-partition).
    """
    partition = Partition.uniform(model, n_stages)
    boundaries = list(partition.boundaries)

    gpu_memory = 1 << 62  # resident stages: memory is _check_memory's job

    def score(bounds: list[int]) -> float:
        stages = [
            stage_record(cost, n_stages, bandwidth, gpu_memory)
            for cost in cost_model.stage_costs_for_partition(model, bounds)
        ]
        timings = evaluate_pipeline(
            stages,
            n_stages,
            n_stages,
            bandwidth,
            gpu_memory,
            include_initial_upload=False,
        )
        return timings.step_seconds

    best = score(boundaries)
    improved = True
    while improved:
        improved = False
        for index in range(len(boundaries)):
            for delta in (-1, 1):
                candidate = list(boundaries)
                candidate[index] += delta
                lo = candidate[index - 1] if index else 0
                hi = candidate[index + 1] if index + 1 < len(candidate) else model.n_layers
                if not lo < candidate[index] < hi:
                    continue
                value = score(candidate)
                if value < best - 1e-12:
                    boundaries, best, improved = candidate, value, True
    return Partition(model, tuple(boundaries))


def _build_tasks(
    partition: Partition,
    mapping: Mapping,
    topology: Topology,
    stage_costs: list[StageCost],
    n_microbatches: int,
    schedule: str,
) -> TaskTable:
    s = partition.n_stages
    m = n_microbatches
    gpu = [mapping.gpu_of_stage(j) for j in range(s)]
    table = TaskTable()

    fwd: dict[tuple[int, int], int] = {}
    bwd: dict[tuple[int, int], int] = {}
    act: dict[tuple[int, int], int] = {}
    grad: dict[tuple[int, int], int] = {}

    def make_transfer(src: int, dst: int, nbytes: int, label: str, after: int) -> int:
        return table.transfer(
            topology.gpu_to_gpu_path(gpu[src], gpu[dst]),
            nbytes,
            gpu[dst],
            "activation",
            _ACT_PRIORITY,
            label,
            after=(after,),
        )

    # Per-GPU execution order enforced by chaining compute tasks.
    order: list[list[tuple[str, int, int]]] = [[] for _ in range(s)]
    for j in range(s):
        if schedule == "gpipe":
            order[j] = [("f", j, mb) for mb in range(m)] + [("b", j, mb) for mb in range(m)]
        else:  # 1f1b
            warmup = min(m, s - 1 - j + 1)
            seq: list[tuple[str, int, int]] = [("f", j, mb) for mb in range(warmup)]
            next_f, next_b = warmup, 0
            while next_b < m:
                seq.append(("b", j, next_b))
                next_b += 1
                if next_f < m:
                    seq.append(("f", j, next_f))
                    next_f += 1
            order[j] = seq

    # Pass 1: create compute tasks with per-GPU serial chaining only.
    for j in range(s):
        cost = stage_costs[j]
        prev: int | None = None
        for phase, _, mb in order[j]:
            if phase == "f":
                prev = fwd[(j, mb)] = table.compute(
                    gpu[j], cost.fwd_seconds, f"F{j},{mb}", after=(prev,)
                )
            else:
                prev = bwd[(j, mb)] = table.compute(
                    gpu[j], cost.bwd_seconds, f"B{j},{mb}", after=(prev,)
                )

    # Pass 2: inter-stage transfers and cross-stage dependencies.
    for j in range(s):
        cost = stage_costs[j]
        for mb in range(m):
            if j + 1 < s and gpu[j] != gpu[j + 1]:
                act[(j, mb)] = make_transfer(
                    j, j + 1, cost.output_activation_bytes, f"A{j},{mb}", fwd[(j, mb)]
                )
            if j and gpu[j] != gpu[j - 1]:
                grad[(j, mb)] = make_transfer(
                    j, j - 1, cost.input_activation_bytes, f"G{j},{mb}", bwd[(j, mb)]
                )
    for j in range(s):
        for mb in range(m):
            if j:
                table.after(fwd[(j, mb)], act.get((j - 1, mb), fwd[(j - 1, mb)]))
            if j + 1 < s:
                table.after(bwd[(j, mb)], grad.get((j + 1, mb), bwd[(j + 1, mb)]))
            else:
                # The per-GPU order chain already places the last stage's
                # backwards after the right forwards for each schedule.
                table.after(bwd[(j, mb)], fwd[(j, mb)])

    return table


def _run_resident_pipeline(
    model: ModelSpec,
    topology: Topology,
    schedule: str,
    *,
    microbatch_size: int | None = None,
    n_microbatches: int | None = None,
) -> PipelineBaselineReport:
    mbs = microbatch_size or model.default_microbatch_size
    n = topology.n_gpus
    m = n_microbatches or n
    cost_model = CostModel(topology.gpu_spec, mbs)
    _check_total_memory(model, cost_model, n, schedule)
    partition = _balanced_partition(model, cost_model, n, topology.pcie_bandwidth)
    stage_costs = partition.stage_costs(cost_model)
    _check_memory(stage_costs, cost_model.usable_gpu_bytes(), m, schedule, model.name)
    tasks = _build_tasks(
        partition, Mapping.sequential(n), topology, stage_costs, m, schedule
    )
    trace = TaskGraphRunner(topology).execute(tasks)
    return PipelineBaselineReport(partition=partition, trace=trace, schedule=schedule)


def run_gpipe(
    model: ModelSpec,
    topology: Topology,
    *,
    microbatch_size: int | None = None,
    n_microbatches: int | None = None,
) -> PipelineBaselineReport:
    """Simulate one GPipe training step (raises if the model doesn't fit).

    Raises:
        OutOfMemoryError: When a resident stage exceeds GPU memory.
    """
    return _run_resident_pipeline(
        model,
        topology,
        "gpipe",
        microbatch_size=microbatch_size,
        n_microbatches=n_microbatches,
    )


def run_deepspeed_pipeline(
    model: ModelSpec,
    topology: Topology,
    *,
    microbatch_size: int | None = None,
    n_microbatches: int | None = None,
) -> PipelineBaselineReport:
    """Simulate DeepSpeed's pipeline-parallel mode (1F1B, all-in-GPU).

    Raises:
        OutOfMemoryError: When a resident stage exceeds GPU memory.
    """
    return _run_resident_pipeline(
        model,
        topology,
        "1f1b",
        microbatch_size=microbatch_size,
        n_microbatches=n_microbatches,
    )
