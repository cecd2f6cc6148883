"""Discrete-event simulation substrate.

Replaces the paper's CUDA runtime: per-GPU serial compute units, a
priority-aware max-min fair flow network over the PCIe/NVLink topology, and a
task-graph runner that executes scheduler-emitted graphs into traces.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.resources import ComputeUnit, Flow, FlowNetwork
from repro.sim.tasks import DeadlockError, TaskGraphRunner, TaskTable, TaskTimes
from repro.sim.trace import (
    ComputeSpan,
    Trace,
    TransferSpan,
    merge_intervals,
    subtract_intervals,
    total_length,
)

__all__ = [
    "ComputeSpan",
    "ComputeUnit",
    "DeadlockError",
    "EventHandle",
    "Flow",
    "FlowNetwork",
    "Simulator",
    "TaskGraphRunner",
    "TaskTable",
    "TaskTimes",
    "Trace",
    "TransferSpan",
    "merge_intervals",
    "subtract_intervals",
    "total_length",
]
