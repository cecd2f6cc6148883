"""Training loops: pipeline schedules and the Figure 13 convergence run."""

from repro.training.convergence import ConvergenceResult, run_convergence_experiment
from repro.training.pipeline_train import (
    MobiusScheduleTrainer,
    StagePartition,
    SwapEvent,
)

__all__ = [
    "ConvergenceResult",
    "MobiusScheduleTrainer",
    "StagePartition",
    "SwapEvent",
    "run_convergence_experiment",
]
