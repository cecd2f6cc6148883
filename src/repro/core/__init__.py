"""The paper's contribution: Mobius pipeline, MIP partition, cross mapping."""

from repro.core.extensions import (
    MicrobatchAdvice,
    advise_microbatch_size,
    simulate_mobius_steps,
    simulate_with_ssd,
)
from repro.core.api import (
    MobiusConfig,
    MobiusPlanReport,
    MobiusReport,
    plan_mobius,
    run_mobius,
)
from repro.core.mapping import (
    MappingResult,
    contention_degree,
    cross_mapping,
    sequential_mapping,
)
from repro.core.partition import (
    PartitionResult,
    PlanInfeasibleError,
    max_stage_partition,
    min_stage_partition,
    mip_partition,
)
from repro.core.pipeline import MobiusRun, build_mobius_tasks, simulate_mobius
from repro.core.plan import ExecutionPlan, Mapping, Partition
from repro.core.timing import PipelineTimings, evaluate_pipeline, prefetch_budgets

__all__ = [
    "ExecutionPlan",
    "MicrobatchAdvice",
    "advise_microbatch_size",
    "simulate_mobius_steps",
    "simulate_with_ssd",
    "Mapping",
    "MappingResult",
    "MobiusConfig",
    "MobiusPlanReport",
    "MobiusReport",
    "MobiusRun",
    "Partition",
    "PartitionResult",
    "PipelineTimings",
    "PlanInfeasibleError",
    "build_mobius_tasks",
    "contention_degree",
    "cross_mapping",
    "evaluate_pipeline",
    "max_stage_partition",
    "min_stage_partition",
    "mip_partition",
    "plan_mobius",
    "prefetch_budgets",
    "run_mobius",
    "sequential_mapping",
    "simulate_mobius",
]
