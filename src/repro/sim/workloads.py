"""Synthetic datacenter-scale simulator workloads.

The Mobius planner cannot emit a ~1M-event scenario directly: pipeline
stages are bounded by model depth, so even a 64-GPU corpus plan executes a
few thousand events.  The scale benchmarks (the ``large`` row of
``repro bench sim``, DESIGN.md §12) instead drive the simulator with a *synthetic*
offload-style workload shaped like Mobius execution at fleet scale: every
GPU runs ``rounds`` chained rounds of

    DRAM upload (``param-upload``) -> compute -> DRAM offload (``grad-offload``)

so at any instant each root complex serves its group's concurrent up/down
flows (cross-heterogeneity keeps completions from collapsing into a single
timestamp).  On :func:`~repro.hardware.topology.large_cluster` at 1024
GPUs this is ~10^6 heap events and ~2000 concurrent flows — past
:attr:`~repro.sim.resources.FlowNetwork.vector_threshold`, so the columnar
flow scans carry the load.

Everything is event-sequence deterministic: per-task variation comes from
integer-hash arithmetic (no ``random``, no clocks — ``repro.sim`` is a
MOB004 determinism root), so the trace digest is bit-identical
across runs and machines.
"""

from __future__ import annotations

import dataclasses

from repro.hardware.topology import Topology
from repro.sim.resources import FlowNetworkStats
from repro.sim.tasks import TaskGraphRunner, TaskTable
from repro.sim.trace import Trace

__all__ = [
    "build_cluster_workload",
    "run_cluster_workload",
    "ClusterWorkloadResult",
]

_GB = 1e9

# Knuth-style multiplicative hashes; the exact constants are arbitrary but
# frozen — they are part of the workload's deterministic identity.
_HASH_A = 2654435761
_HASH_B = 40503
_HASH_C = 69427


def _vary(gpu: int, rnd: int, salt: int, span: int) -> int:
    """Deterministic pseudo-variation in ``[0, span)`` from integers only."""
    return ((gpu * _HASH_A) ^ (rnd * _HASH_B) ^ (salt * _HASH_C)) % span


def build_cluster_workload(
    topology: Topology,
    *,
    rounds: int,
    base_bytes: int = 50_000_000,
    base_compute_seconds: float = 0.02,
) -> TaskTable:
    """Task graph for ``rounds`` upload/compute/offload rounds per GPU.

    Per (gpu, round) the byte counts, compute durations and a sprinkling
    of high-priority uploads (the §3.3 prefetch-priority path) vary by
    integer hash, so concurrent flows have distinct completion instants
    and the allocator sees realistic arrival/departure churn.

    Returns a table of ``3 * n_gpus * rounds`` rows; executing it dispatches
    roughly ``3 * n_gpus * rounds`` simulator events (one per compute, one
    per transfer completion, minus coalesced same-instant finishes).
    """
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    table = TaskTable()
    for gpu in range(topology.n_gpus):
        upload_path = topology.path_from_dram(gpu)
        offload_path = topology.path_to_dram(gpu)
        prev: int | None = None
        for rnd in range(rounds):
            upload = table.transfer(
                upload_path,
                base_bytes * (1 + _vary(gpu, rnd, 1, 7)),
                gpu,
                "param-upload",
                1 if _vary(gpu, rnd, 2, 5) == 0 else 0,
                after=(prev,),
            )
            compute = table.compute(
                gpu,
                base_compute_seconds * (1 + _vary(gpu, rnd, 3, 4)),
                after=(upload,),
            )
            prev = table.transfer(
                offload_path,
                base_bytes * (1 + _vary(gpu, rnd, 4, 7)),
                gpu,
                "grad-offload",
                after=(compute,),
            )
    return table


@dataclasses.dataclass(frozen=True)
class ClusterWorkloadResult:
    """Outcome of one synthetic cluster run."""

    trace: Trace
    #: Bit-exact columnar trace identity (``Trace.columnar_digest``).
    digest: str
    events_processed: int
    n_tasks: int
    stats: FlowNetworkStats


def run_cluster_workload(
    topology: Topology,
    *,
    rounds: int,
    base_bytes: int = 50_000_000,
    base_compute_seconds: float = 0.02,
) -> ClusterWorkloadResult:
    """Build and execute the cluster workload; returns trace + counters."""
    tasks = build_cluster_workload(
        topology,
        rounds=rounds,
        base_bytes=base_bytes,
        base_compute_seconds=base_compute_seconds,
    )
    runner = TaskGraphRunner(topology)
    trace = runner.execute(tasks)
    return ClusterWorkloadResult(
        trace=trace,
        digest=trace.columnar_digest(),
        events_processed=runner.sim.events_processed,
        n_tasks=len(tasks),
        stats=runner.network.stats,
    )
