"""ZeRO-Offload baseline (related work, §5).

ZeRO-Offload [37] keeps a *full replica* of the FP16 parameters in every
GPU's memory and offloads only gradients and the Adam state to DRAM.  That
removes almost all parameter communication — per step, each GPU only
all-reduces gradients with its peers and streams them to the CPU optimizer —
but caps the trainable model at what a single GPU can hold (the paper's
§5: "the model scale is limited by a single GPU's memory capacity when
using ZeRO-Offload").

Footprint per GPU: FP16 params + FP16 grads (4 bytes/param) plus
activations; on a 24 GB 3090-Ti that tops out near a 5-6B model, between
GPipe's ~3B (16 bytes/param over N GPUs) and Mobius/ZeRO-3's DRAM-bound
scale.
"""

from __future__ import annotations

import dataclasses

from repro.baselines.gpipe import OutOfMemoryError
from repro.hardware.topology import Topology
from repro.models.costmodel import CostModel
from repro.models.spec import FP16_BYTES, ModelSpec
from repro.sim.tasks import TaskGraphRunner, TaskTable
from repro.sim.trace import Trace

__all__ = ["ZeroOffloadReport", "run_zero_offload"]

_OFFLOAD_PRIORITY = -1


@dataclasses.dataclass
class ZeroOffloadReport:
    """Result of simulating one ZeRO-Offload training step."""

    model: ModelSpec
    trace: Trace

    @property
    def step_seconds(self) -> float:
        return self.trace.makespan


def _check_memory(model: ModelSpec, cost_model: CostModel, n_microbatches: int) -> None:
    params = model.param_count
    resident = params * (FP16_BYTES + FP16_BYTES)  # replica + grads
    working = max(
        cost_model.layer_cost(layer).working_bytes for layer in model.layers
    )
    stash = sum(
        cost_model.layer_cost(layer).activation_bytes for layer in model.layers
    )
    needed = resident + working + stash
    capacity = cost_model.usable_gpu_bytes()
    if needed > capacity:
        raise OutOfMemoryError(
            f"{model.name} needs {needed / 1e9:.1f}GB per GPU under ZeRO-Offload "
            f"(full FP16 replica + grads), GPU has {capacity / 1e9:.1f}GB"
        )


def run_zero_offload(
    model: ModelSpec,
    topology: Topology,
    *,
    microbatch_size: int | None = None,
    microbatches_per_gpu: int = 1,
) -> ZeroOffloadReport:
    """Simulate one ZeRO-Offload training step.

    Per GPU: forward and backward over the resident replica (no parameter
    communication), ring all-reduce of each layer's gradients with peers,
    and a gradient stream to the CPU optimizer; updated FP16 params return
    from DRAM at the end of the step (ZeRO-Offload's CPU-side update).

    Raises:
        OutOfMemoryError: When the FP16 replica + gradients exceed GPU
            memory (the §5 model-scale limit).
    """
    mbs = microbatch_size or model.default_microbatch_size
    cost_model = CostModel(topology.gpu_spec, mbs)
    _check_memory(model, cost_model, microbatches_per_gpu)

    n = topology.n_gpus
    layer_costs = [cost_model.layer_cost(layer) for layer in model.layers]
    table = TaskTable()
    bwd_of: dict[tuple[int, int], int] = {}

    for g in range(n):
        last: int | None = None
        for index, cost in enumerate(layer_costs):
            last = table.compute(
                g, cost.fwd_seconds * microbatches_per_gpu, f"F{index}@{g}", after=(last,)
            )
        for index in range(len(layer_costs) - 1, -1, -1):
            cost = layer_costs[index]
            last = bwd_of[(g, index)] = table.compute(
                g, cost.bwd_seconds * microbatches_per_gpu, f"B{index}@{g}", after=(last,)
            )

    # Gradient path: ring all-reduce across GPUs (bounced on commodity
    # servers) then the reduced shard streams to the CPU optimizer.
    for index, cost in enumerate(layer_costs):
        shard = cost.param_bytes / n
        for g in range(n):
            previous = bwd_of[(g, index)]
            for peer in range(n):
                if peer == g:
                    continue
                previous = table.transfer(
                    topology.gpu_to_gpu_path(g, peer),
                    shard,
                    g,
                    "reduce-scatter",
                    _OFFLOAD_PRIORITY,
                    f"ar{index}@{g}->{peer}",
                    after=(previous,),
                )
            table.transfer(
                topology.path_to_dram(g),
                shard,
                g,
                "grad-offload",
                _OFFLOAD_PRIORITY,
                f"gu{index}@{g}",
                after=(previous,),
            )

    trace = TaskGraphRunner(topology).execute(table)
    return ZeroOffloadReport(model=model, trace=trace)
