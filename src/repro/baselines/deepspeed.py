"""DeepSpeed ZeRO-3 with heterogeneous memory (the paper's main baseline).

Model of the §2.3 analysis: FP16 parameters are sharded across GPUs and
offloaded to DRAM together with gradients and the Adam state (ZeRO-Offload /
ZeRO-Infinity style).  Training is data-parallel — every GPU runs the whole
model on its local microbatches — and each layer traversal requires the
layer's *full* FP16 parameters on every GPU:

* **forward**: per layer, every GPU gathers the full layer (its own shard
  plus the all-gathered remote shards).  Commodity servers lack GPUDirect
  P2P, so every gathered byte crosses the GPU's root complex: ``P_l`` bytes
  *per GPU per traversal* — the all-to-all pattern whose contention Figure 2
  measures.  Because the gather is a *collective*, ranks proceed in lock
  step: layer ``l+1``'s gather cannot start anywhere until layer ``l``'s
  gather finished on every GPU (modelled with barrier tasks), and each
  collective costs a fixed launch/staging latency on the GPU.
* **backward**: the layer is gathered again, and the produced FP16 gradients
  leave the GPU for the CPU optimizer (``P_l`` bytes up per GPU, the
  CPU-side reduction of ZeRO-Offload).

Aggregate parameter-gather traffic per step is ``2 * N * P * overhead`` FP16
bytes plus ``N * P`` of gradients — Eq. 2's ``~1.5 N x`` (FP32) model bytes;
the paper measures 7.3x for N=4 against the analytic 6x, i.e. ~1.2x runtime
overhead, which the ``traffic_overhead`` knob reproduces.
"""

from __future__ import annotations

import dataclasses

from repro.hardware.topology import Topology
from repro.models.costmodel import CostModel
from repro.models.spec import ModelSpec
from repro.sim.tasks import TaskGraphRunner, TaskTable
from repro.sim.trace import Trace

__all__ = ["DeepSpeedConfig", "DeepSpeedReport", "run_deepspeed", "build_deepspeed_tasks"]

_OFFLOAD_PRIORITY = -1


@dataclasses.dataclass(frozen=True)
class DeepSpeedConfig:
    """Knobs of the ZeRO-3 heterogeneous-memory simulation.

    Attributes:
        microbatch_size: Per-GPU microbatch size; defaults to the model's
            Table 3 value.
        microbatches_per_gpu: Local gradient-accumulation steps; the default
            (1) matches Mobius's global batch of N * microbatch_size.
        prefetch_depth: How many upcoming layers' gathers may be in flight
            (DeepSpeed's parameter prefetching).
        traffic_overhead: Multiplier on parameter-gather bytes accounting
            for runtime overhead (fragmentation, re-gathers); calibrated so
            total traffic lands at the measured ~7.3x model size for N=4.
        collective_latency: Fixed per-collective GPU-side cost in seconds
            (launch, CPU bounce staging, synchronisation) on commodity
            servers without GPUDirect P2P.
        collective_latency_p2p: Per-collective cost when GPUDirect P2P is
            available (no CPU bounce staging; NCCL runs device-to-device).
        lockstep: Whether collectives synchronise ranks (barrier per layer).
    """

    microbatch_size: int | None = None
    microbatches_per_gpu: int = 1
    prefetch_depth: int = 2
    traffic_overhead: float = 1.22
    collective_latency: float = 0.008
    collective_latency_p2p: float = 0.002
    lockstep: bool = True


@dataclasses.dataclass
class DeepSpeedReport:
    """Result of simulating one DeepSpeed ZeRO-3 training step."""

    model: ModelSpec
    trace: Trace

    @property
    def step_seconds(self) -> float:
        return self.trace.makespan


def build_deepspeed_tasks(
    model: ModelSpec,
    topology: Topology,
    cost_model: CostModel,
    config: DeepSpeedConfig = DeepSpeedConfig(),
) -> TaskTable:
    """Emit one ZeRO-3 heterogeneous-memory training step as a task graph."""
    n = topology.n_gpus
    n_layers = model.n_layers
    mbs_per_gpu = config.microbatches_per_gpu
    table = TaskTable()
    transfer = table.transfer
    layer_costs = [cost_model.layer_cost(layer) for layer in model.layers]
    latency = (
        config.collective_latency_p2p if topology.has_p2p else config.collective_latency
    )

    compute: list[int | None] = [None] * n  # last compute per GPU
    barriers: dict[tuple[str, int], int] = {}

    def emit_gather(direction: str, position: int, layer: int, extra_deps: list[int]) -> list[int]:
        """One layer's collective gather on every GPU (Eq. 2 decomposition:
        own-shard restore from DRAM + N-1 inter-GPU bounced shards)."""
        layer_bytes = layer_costs[layer].param_bytes * config.traffic_overhead
        shard = layer_bytes / n
        deps = list(extra_deps)
        if position >= config.prefetch_depth:
            deps.append(barriers[(direction, position - config.prefetch_depth)])
        done: list[int] = []
        for g in range(n):
            restore = transfer(
                topology.path_from_dram(g),
                shard,
                g,
                "shard-restore",
                label=f"ag-{direction}{layer}@{g}.own",
                after=deps,
            )
            parts = [restore]
            # Ring-style all-gather: the N-1 remote shards arrive as
            # *sequential* steps (NCCL serialises ring chunks), each
            # bounced through DRAM on commodity servers.
            previous = restore
            for peer in range(n):
                if peer == g:
                    continue
                previous = transfer(
                    topology.gpu_to_gpu_path(peer, g),
                    shard,
                    g,
                    "allgather",
                    label=f"ag-{direction}{layer}@{g}<-{peer}",
                    after=(previous,),
                )
                parts.append(previous)
            done.append(
                table.barrier(f"ag-{direction}{layer}@{g}.done", after=parts)
            )
        # Without lockstep the barrier waits on GPU 0 only, which keeps the
        # graph connected.
        barriers[(direction, position)] = table.barrier(
            f"bar-{direction}{position}",
            after=done if config.lockstep else done[:1],
        )
        return done

    def emit_compute(gather_done: int, g: int, seconds: float, label: str) -> int:
        sync = table.compute(g, latency, f"sync-{label}", after=(gather_done,))
        work = compute[g] = table.compute(g, seconds, label, after=(sync, compute[g]))
        return work

    # Forward traversal.
    for position, layer in enumerate(range(n_layers)):
        done = emit_gather("f", position, layer, [])
        for g in range(n):
            emit_compute(
                done[g], g, layer_costs[layer].fwd_seconds * mbs_per_gpu, f"F{layer}@{g}"
            )

    fwd_tail = [compute[g] for g in range(n)]

    # Backward traversal: gather again, compute, push FP16 grads to the CPU.
    for position, layer in enumerate(range(n_layers - 1, -1, -1)):
        done = emit_gather("b", position, layer, fwd_tail)
        for g in range(n):
            work = emit_compute(
                done[g], g, layer_costs[layer].bwd_seconds * mbs_per_gpu, f"B{layer}@{g}"
            )
            # Gradients are reduce-scattered across GPUs (bounced shard
            # sends, "all-reduced" in §2.3) and the owned shard is then
            # swapped to DRAM for the CPU optimizer — N x grad bytes total,
            # Eq. 2's G term.
            shard = layer_costs[layer].param_bytes / n
            for peer in range(n):
                if peer == g:
                    continue
                transfer(
                    topology.gpu_to_gpu_path(g, peer),
                    shard,
                    g,
                    "reduce-scatter",
                    label=f"rs{layer}@{g}->{peer}",
                    after=(work,),
                )
            transfer(
                topology.path_to_dram(g),
                shard,
                g,
                "grad-offload",
                _OFFLOAD_PRIORITY,
                label=f"gu{layer}@{g}",
                after=(work,),
            )

    return table


def run_deepspeed(
    model: ModelSpec,
    topology: Topology,
    config: DeepSpeedConfig = DeepSpeedConfig(),
) -> DeepSpeedReport:
    """Simulate one DeepSpeed ZeRO-3 heterogeneous-memory training step."""
    mbs = config.microbatch_size or model.default_microbatch_size
    cost_model = CostModel(topology.gpu_spec, mbs)
    tasks = build_deepspeed_tasks(model, topology, cost_model, config)
    trace = TaskGraphRunner(topology).execute(tasks)
    return DeepSpeedReport(model=model, trace=trace)
