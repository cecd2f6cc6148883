"""High-level Mobius API: profile -> partition -> map -> execute.

:func:`plan_mobius` runs the full planning pipeline of the paper —
similarity-compressed profiling (§3.2), the MIP partition search (§3.2) and
cross mapping (§3.3) — and returns an :class:`~repro.core.plan.ExecutionPlan`
plus the planning work behind it (Figure 12).  :func:`run_mobius` additionally
simulates one training step on the given server topology.  Planning is a
pure function of ``(model, topology, config)``: one solve path, no state
carried between calls beyond the content-addressed result cache.

Example:
    >>> from repro.hardware import topo_2_2
    >>> from repro.models import gpt_8b
    >>> report = run_mobius(gpt_8b(), topo_2_2())
    >>> report.step_seconds > 0
    True
"""

from __future__ import annotations

import dataclasses
import math

from repro.core.mapping import MappingResult, cross_mapping, sequential_mapping
from repro.core.partition import (
    PartitionResult,
    max_stage_partition,
    min_stage_partition,
    mip_partition,
)
from repro.core.pipeline import MobiusRun, simulate_mobius
from repro.core.plan import ExecutionPlan
from repro.hardware.topology import Topology
from repro.models.costmodel import CostModel
from repro.models.profiler import ProfileReport, Profiler
from repro.models.spec import ModelSpec
from repro.perf.cache import get_cache
from repro.sim.trace import Trace

__all__ = [
    "MobiusConfig",
    "MobiusPlanReport",
    "MobiusReport",
    "partition_solve_key",
    "plan_mobius",
    "run_mobius",
]

_PARTITIONERS = {
    "mip": mip_partition,
    "max-stage": max_stage_partition,
    "min-stage": min_stage_partition,
}


def partition_solve_key(
    model: ModelSpec, topology: Topology, config: "MobiusConfig"
) -> tuple:
    """The exact ``"partition"`` memoize key of a ``plan_mobius`` call.

    The layer-to-stage split does not depend on the mapping/prefetch knobs
    or on the topology's wiring, only on the inputs below — so ablations
    that sweep ``mapping_method`` (Figure 10) share one budget-limited
    solve.  The suite scheduler uses the same key to recognise cells whose
    plans collapse onto one solve, so the tuple is built in exactly one
    place.
    """
    microbatch_size = config.microbatch_size or model.default_microbatch_size
    n_gpus = topology.n_gpus
    time_limit = max_nodes = None
    if config.partition_method == "mip":
        time_limit = config.partition_time_limit
        if config.partition_max_nodes is not None:
            max_nodes = config.partition_max_nodes
    return (
        "partition",
        config.partition_method,
        model,
        topology.gpu_spec,
        microbatch_size,
        n_gpus,
        config.n_microbatches or n_gpus,
        config.bandwidth or topology.pcie_bandwidth,
        time_limit,
        max_nodes,
    )


@dataclasses.dataclass(frozen=True)
class MobiusConfig:
    """Tunable knobs of the planner and executor.

    Attributes:
        microbatch_size: Sequences per microbatch; defaults to the model's
            Table 3 value.
        n_microbatches: Microbatches per step; Mobius uses M = N (default).
        partition_method: ``"mip"`` (default), ``"max-stage"`` or
            ``"min-stage"`` (§4.3 ablation).
        mapping_method: ``"cross"`` (default) or ``"sequential"`` (§4.4).
        partition_time_limit: Search budget for the MIP partitioner.
        partition_max_nodes: Deterministic node budget for the MIP
            partition search (``None`` keeps the partitioner's default).
            This is how ``repro.serve`` enforces per-request deadlines:
            budgets are exact and machine-independent, so a
            deadline-limited solve returns the same incumbent everywhere —
            wall-clock never steers control flow.
        prefetch: Overlap stage uploads with computation (§3.1).
        use_priorities: Prefetch priority streams (§3.3).
        bandwidth: Average bandwidth ``B`` for the MIP; defaults to the
            topology's PCIe link bandwidth.

    ``None`` selects a default; a count must otherwise be at least 1, a
    bandwidth finite and positive, and the time limit positive, or
    construction raises ``ValueError`` naming the field: a 0 is never read
    as "the default".
    """

    microbatch_size: int | None = None
    n_microbatches: int | None = None
    partition_method: str = "mip"
    mapping_method: str = "cross"
    partition_time_limit: float = 10.0
    partition_max_nodes: int | None = None
    prefetch: bool = True
    use_priorities: bool = True
    bandwidth: float | None = None

    #: A field removed from this class, with the one value every config
    #: held.  :func:`repro.perf.fingerprint.fingerprint` still encodes it,
    #: so content digests of configs, and of the suite cells carrying
    #: them, stay what they were before the removal.
    __mobius_retired_fields__ = (("solver_mode", "solo"),)

    def __post_init__(self) -> None:
        for name in ("microbatch_size", "n_microbatches", "partition_max_nodes"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be None or >= 1, got {value}")
        bandwidth = self.bandwidth
        if bandwidth is not None and not (math.isfinite(bandwidth) and bandwidth > 0):
            raise ValueError(f"bandwidth must be None or finite and > 0, got {bandwidth}")
        if not self.partition_time_limit > 0:
            raise ValueError(
                f"partition_time_limit must be > 0, got {self.partition_time_limit}"
            )


@dataclasses.dataclass
class MobiusPlanReport:
    """Planning output plus the work behind it (Figure 12).

    A pure function of the model, topology and config: it holds search
    work counters and the profiler's simulated seconds, never a wall
    reading, so a cached report prints the same as a fresh one.
    """

    plan: ExecutionPlan
    partition_result: PartitionResult
    mapping_result: MappingResult
    profile_report: ProfileReport
    cost_model: CostModel


@dataclasses.dataclass
class MobiusReport:
    """Planning + one simulated training step."""

    plan_report: MobiusPlanReport
    run: MobiusRun

    @property
    def step_seconds(self) -> float:
        return self.run.step_seconds

    @property
    def trace(self) -> Trace:
        return self.run.trace


def plan_mobius(
    model: ModelSpec, topology: Topology, config: MobiusConfig = MobiusConfig()
) -> MobiusPlanReport:
    """Run Mobius's planning pipeline for ``model`` on ``topology``.

    Results are memoized by content through the global
    :mod:`repro.perf` cache: planning the same (model, topology, config)
    triple twice — in this process, or across processes when the disk tier
    is enabled — returns the stored report without re-solving.  The
    report depends on ``(model, topology, config)`` only, never on what
    the process planned before.  Treat the returned report as immutable.
    """
    return get_cache().memoize(
        "plan",
        ("plan_mobius", model, topology, config),
        lambda: _plan_mobius_uncached(model, topology, config),
    )


def _plan_mobius_uncached(
    model: ModelSpec, topology: Topology, config: MobiusConfig
) -> MobiusPlanReport:
    microbatch_size = config.microbatch_size or model.default_microbatch_size
    n_gpus = topology.n_gpus
    n_microbatches = config.n_microbatches or n_gpus
    bandwidth = config.bandwidth or topology.pcie_bandwidth

    cost_model = CostModel(topology.gpu_spec, microbatch_size)
    profile_report = Profiler(cost_model).profile(model)

    try:
        partitioner = _PARTITIONERS[config.partition_method]
    except KeyError:
        raise ValueError(
            f"unknown partition_method {config.partition_method!r}; "
            f"expected one of {sorted(_PARTITIONERS)}"
        ) from None
    kwargs = {}
    if config.partition_method == "mip":
        kwargs["time_limit"] = config.partition_time_limit
        if config.partition_max_nodes is not None:
            kwargs["max_nodes"] = config.partition_max_nodes
    partition_result = get_cache().memoize(
        "partition",
        partition_solve_key(model, topology, config),
        lambda: partitioner(model, cost_model, n_gpus, n_microbatches, bandwidth, **kwargs),
    )

    n_stages = partition_result.partition.n_stages
    if config.mapping_method == "cross":
        mapping_result = cross_mapping(topology, n_stages)
    elif config.mapping_method == "sequential":
        mapping_result = sequential_mapping(topology)
    else:
        raise ValueError(
            f"unknown mapping_method {config.mapping_method!r}; "
            "expected 'cross' or 'sequential'"
        )

    timings = partition_result.timings
    plan = ExecutionPlan(
        partition=partition_result.partition,
        mapping=mapping_result.mapping,
        n_microbatches=n_microbatches,
        microbatch_size=microbatch_size,
        prefetch_fwd_bytes=timings.prefetch_fwd_bytes,
        prefetch_bwd_bytes=timings.prefetch_bwd_bytes,
        estimated_step_seconds=timings.step_seconds,
    )
    return MobiusPlanReport(
        plan=plan,
        partition_result=partition_result,
        mapping_result=mapping_result,
        profile_report=profile_report,
        cost_model=cost_model,
    )


def run_mobius(
    model: ModelSpec, topology: Topology, config: MobiusConfig = MobiusConfig()
) -> MobiusReport:
    """Plan and simulate one Mobius training step."""
    plan_report = plan_mobius(model, topology, config)
    run = simulate_mobius(
        plan_report.plan,
        topology,
        plan_report.cost_model,
        prefetch=config.prefetch,
        use_priorities=config.use_priorities,
    )
    return MobiusReport(plan_report=plan_report, run=run)
