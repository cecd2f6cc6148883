"""Fault injection, degraded-mode execution and elastic re-planning.

Deterministic chaos testing for the Mobius reproduction: declarative fault
models (:mod:`~repro.faults.models`), retry/degraded-mode recovery inside
one simulated step (:mod:`~repro.faults.recovery`), MIP re-planning after
GPU dropout (:mod:`~repro.faults.replan`) and the ``repro bench chaos`` harness
(:mod:`~repro.faults.chaos`) that proves recovery with the
:mod:`repro.check` verifiers.
"""

from repro.faults.chaos import (
    SCENARIOS,
    ChaosCellResult,
    ChaosReport,
    build_schedule,
    run_chaos,
    run_chaos_cell,
)
from repro.faults.models import (
    FaultSchedule,
    FlakyTransfers,
    GpuDropout,
    LinkDegradation,
    StragglerGpu,
    failure_coin,
)
from repro.faults.recovery import (
    FailedAttempt,
    FaultedStep,
    FaultInjectingRunner,
    RetryPolicy,
    UnrecoverableTransferError,
    run_step,
)
from repro.faults.replan import (
    ReplanCostModel,
    ReplanResult,
    replan_after_dropout,
    surviving_topology,
)

__all__ = [
    "SCENARIOS",
    "ChaosCellResult",
    "ChaosReport",
    "FailedAttempt",
    "FaultInjectingRunner",
    "FaultSchedule",
    "FaultedStep",
    "FlakyTransfers",
    "GpuDropout",
    "LinkDegradation",
    "ReplanCostModel",
    "ReplanResult",
    "RetryPolicy",
    "StragglerGpu",
    "UnrecoverableTransferError",
    "build_schedule",
    "failure_coin",
    "replan_after_dropout",
    "run_chaos",
    "run_chaos_cell",
    "run_step",
    "surviving_topology",
]
