"""End-to-end GPU-memory audit of a simulated Mobius step (a test oracle).

The planner enforces the paper's memory constraints analytically (Eqs. 4-5);
this module *verifies them against the executed schedule*: it simulates a
step, replays every task's realised start/end time into per-GPU residency
ledgers (parameters, activation stash, gradients, transient buffers), and
reports the peak residency per GPU.  ``tests/core/test_memory_audit.py``
asserts the peak never exceeds usable GPU memory — closing the loop between
the MIP's promises and the simulator's behaviour.  No entry point of the
package runs the audit, so it lives with the tests that use it.

The auditor reads the emitter's structured task labels (``U{j}.pre``,
``F{j},{mb}``, ``Ub{j}.rem.param-upload``, ...).  The label grammar is the
shared contract of :mod:`repro.core.labels`, which the emitter
(:mod:`repro.core.pipeline`) builds against and the ``MOB003`` lint rule
(:mod:`repro.check.analysis.rules`) enforces statically.
"""

from __future__ import annotations

import dataclasses

from repro.core.labels import (
    BWD_UPLOAD_RE as _BWD_UPLOAD_RE,
    COMPUTE_RE as _COMPUTE_RE,
    GRAD_OFFLOAD_RE as _GRAD_OFF_RE,
    STASH_OFFLOAD_RE as _STASH_OFF_RE,
    UPLOAD_RE as _UPLOAD_RE,
)
from repro.core.pipeline import build_mobius_tasks
from repro.core.plan import ExecutionPlan
from repro.hardware.topology import Topology
from repro.models.costmodel import CostModel, StageCost
from repro.sim.tasks import TaskGraphRunner, TaskTable, TaskTimes

__all__ = ["MemoryAudit", "audit_mobius_memory"]


@dataclasses.dataclass
class MemoryAudit:
    """Residency timelines and peaks extracted from one executed step.

    Attributes:
        capacity_bytes: Usable per-GPU memory the plan was built for.
        peak_bytes: Peak audited residency per GPU.
        timelines: Per GPU, the (time, resident_bytes) samples after every
            ledger event, time-ordered.
    """

    capacity_bytes: int
    peak_bytes: list[int]
    timelines: list[list[tuple[float, int]]]

    @property
    def ok(self) -> bool:
        """Whether every GPU stayed within capacity."""
        return all(peak <= self.capacity_bytes for peak in self.peak_bytes)

    def headroom_bytes(self, gpu: int) -> int:
        return self.capacity_bytes - self.peak_bytes[gpu]


def audit_mobius_memory(
    plan: ExecutionPlan,
    topology: Topology,
    cost_model: CostModel,
    *,
    prefetch: bool = True,
    use_priorities: bool = True,
) -> MemoryAudit:
    """Simulate one step and audit per-GPU memory residency over time."""
    stage_costs = plan.partition.stage_costs(cost_model)
    tasks = build_mobius_tasks(
        plan, topology, stage_costs, prefetch=prefetch, use_priorities=use_priorities
    )
    runner = TaskGraphRunner(topology)
    runner.execute(tasks)
    events = _ledger_events(tasks, runner.last_times, plan, stage_costs)

    n_gpus = plan.n_gpus
    timelines: list[list[tuple[float, int]]] = [[] for _ in range(n_gpus)]
    peaks = [0] * n_gpus
    resident = [0] * n_gpus
    for time, gpu, delta in sorted(events, key=lambda e: (e[0], -e[2])):
        resident[gpu] += delta
        peaks[gpu] = max(peaks[gpu], resident[gpu])
        timelines[gpu].append((time, resident[gpu]))
    return MemoryAudit(
        capacity_bytes=cost_model.usable_gpu_bytes(),
        peak_bytes=peaks,
        timelines=timelines,
    )


def _ledger_events(
    tasks: TaskTable,
    times: TaskTimes,
    plan: ExecutionPlan,
    stage_costs: list[StageCost],
) -> list[tuple[float, int, int]]:
    """Convert executed tasks into (time, gpu, delta_bytes) ledger events."""
    s = plan.n_stages
    n = plan.n_gpus
    m = plan.n_microbatches
    gpu_of = [plan.mapping.gpu_of_stage(j) for j in range(s)]
    resident_tail = lambda j: j >= s - n
    events: list[tuple[float, int, int]] = []

    def emit(time: float | None, gpu: int, delta: float) -> None:
        if time is not None and delta:
            events.append((time, gpu, int(delta)))

    for label, nbytes, start, end in zip(
        tasks.label, tasks.nbytes, times.start.tolist(), times.end.tolist()
    ):
        if match := _UPLOAD_RE.match(label):
            stage = int(match.group(1))
            # Memory is reserved when the transfer begins.
            emit(start, gpu_of[stage], nbytes)
            continue

        if match := _BWD_UPLOAD_RE.match(label):
            stage = int(match.group(1))
            emit(start, gpu_of[stage], nbytes)
            continue

        if match := _COMPUTE_RE.match(label):
            phase, stage, mb = match.group(1), int(match.group(2)), int(match.group(3))
            cost = stage_costs[stage]
            gpu = gpu_of[stage]
            if phase == "F":
                rolling = cost.rolling_buffer_bytes()
                emit(start, gpu, rolling)
                emit(end, gpu, -rolling)
                emit(end, gpu, cost.input_activation_bytes)  # stash checkpoint
                if mb == m - 1 and not resident_tail(stage):
                    emit(end, gpu, -cost.param_bytes)  # forward copy freed
            else:
                transient = (
                    cost.intra_activation_bytes
                    + cost.max_working_bytes
                    + cost.output_activation_bytes
                )
                emit(start, gpu, transient)
                emit(end, gpu, -transient)
                if mb == 0:
                    emit(start, gpu, cost.grad_bytes)
                emit(end, gpu, -cost.input_activation_bytes)  # stash consumed
                if mb == m - 1:
                    emit(end, gpu, -cost.param_bytes)  # backward copy freed
            continue

        if match := _STASH_OFF_RE.match(label):
            stage = int(match.group(1))
            emit(end, gpu_of[stage], -stage_costs[stage].input_activation_bytes)
            continue

        if match := _GRAD_OFF_RE.match(label):
            stage = int(match.group(1))
            emit(end, gpu_of[stage], -stage_costs[stage].grad_bytes)
            continue

    return events
