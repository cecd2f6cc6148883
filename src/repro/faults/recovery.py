"""Fault injection and recovery inside one simulated training step.

:class:`FaultInjectingRunner` subclasses the plain
:class:`~repro.sim.tasks.TaskGraphRunner` and perturbs execution only
through the dispatch seams the base class exposes — ``_submit_compute``
for straggler slowdowns and ``_start_transfer`` for flaky transfers — plus
the :meth:`~repro.sim.resources.FlowNetwork.set_bandwidth_scale` hook for
link degradation.  The event loop, flow model and trace recording are the
production code paths, unforked.

Recovery semantics:

* A *failed* transfer is detected at completion (checksum mismatch): the
  bytes moved and occupied the links, but the payload is unusable.  The
  runner re-issues the transfer after an exponential backoff, up to the
  :class:`RetryPolicy` budget.  Successful-after-retry transfers appear in
  the trace as one span from first dispatch to final completion.
* A transfer that exhausts its retry budget raises
  :class:`UnrecoverableTransferError`, aborting the step.
  :func:`run_step` then falls back to *degraded mode*: the step is
  re-executed without prefetch overlap (every stage is fetched from DRAM
  synchronously, with inline verification, so transfers are treated as
  reliable), while hardware faults — degraded links and stragglers —
  remain in force.  The reported step time charges the aborted attempt in
  full: ``abort_seconds + degraded makespan``.

GPU dropout cannot be expressed inside a single step (it changes the
resource set); :class:`FaultInjectingRunner` rejects schedules containing
dropouts — elastic re-planning lives in :mod:`repro.faults.replan`.
"""

from __future__ import annotations

import dataclasses

from repro.core.pipeline import build_mobius_tasks
from repro.core.plan import ExecutionPlan
from repro.faults.models import FaultSchedule, failure_coin
from repro.hardware.topology import Topology
from repro.models.costmodel import CostModel
from repro.sim.engine import Simulator
from repro.sim.resources import ComputeUnit
from repro.sim.tasks import TaskGraphRunner, TaskTable, TaskTimes
from repro.sim.trace import Trace

__all__ = [
    "RetryPolicy",
    "FailedAttempt",
    "UnrecoverableTransferError",
    "FaultInjectingRunner",
    "FaultedStep",
    "run_step",
]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry budget.

    Attempt ``k`` (1-based) that fails waits ``base_delay * growth**(k-1)``
    seconds (capped at ``max_delay`` when set) before attempt ``k + 1`` is
    issued.  ``max_attempts == 1`` is a zero-retry budget: the first
    failure is terminal.

    Originally the transfer-retry budget of
    :class:`FaultInjectingRunner`; the serve layer's
    :class:`repro.serve.supervisor.Supervisor` reuses it to pace
    solver-worker restarts, so the delay sequence is part of the public
    contract: ``backoff(1)`` … ``backoff(max_attempts - 1)`` is the full
    deterministic schedule (the final failed attempt is never followed by a
    wait).
    """

    max_attempts: int = 4
    base_delay: float = 1e-3
    growth: float = 2.0
    max_delay: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.growth < 1:
            raise ValueError(f"growth must be >= 1, got {self.growth}")
        if self.max_delay is not None and self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")

    def backoff(self, attempt: int) -> float:
        """Delay before re-issuing after failed 1-based ``attempt``."""
        delay = self.base_delay * self.growth ** (attempt - 1)
        if self.max_delay is not None:
            delay = min(delay, self.max_delay)
        return delay


@dataclasses.dataclass(frozen=True)
class FailedAttempt:
    """Bookkeeping record of one failed transfer attempt."""

    label: str
    attempt: int
    time: float
    retried: bool


class UnrecoverableTransferError(RuntimeError):
    """A transfer failed on every attempt its retry budget allowed."""

    def __init__(self, label: str, seconds: float, attempts: int) -> None:
        super().__init__(
            f"transfer {label!r} failed {attempts} attempt(s); "
            f"retry budget exhausted at t={seconds:.6f}"
        )
        self.label = label
        self.seconds = seconds
        self.attempts = attempts


class FaultInjectingRunner(TaskGraphRunner):
    """A :class:`TaskGraphRunner` executing under a :class:`FaultSchedule`.

    Link degradations are installed as bandwidth-scale events before any
    task runs; stragglers stretch compute tasks at dispatch time; flaky
    transfers fail deterministically per attempt via
    :func:`~repro.faults.models.failure_coin` and are retried under
    ``retry_policy``.
    """

    def __init__(
        self,
        topology: Topology,
        schedule: FaultSchedule,
        *,
        retry_policy: RetryPolicy = RetryPolicy(),
        simulator: Simulator | None = None,
    ) -> None:
        if schedule.dropouts:
            raise ValueError(
                "GPU dropout is a run-level fault handled by "
                "repro.faults.replan; FaultInjectingRunner only simulates "
                "performance faults (got a schedule with dropouts)"
            )
        super().__init__(topology, simulator=simulator)
        self.schedule = schedule
        self.retry_policy = retry_policy
        #: Failed attempts in completion order (deterministic bookkeeping).
        self.failed_attempts: list[FailedAttempt] = []
        for fault in schedule.link_degradations:
            self.network.set_bandwidth_scale(
                fault.edge, fault.factor, start=fault.start, end=fault.end
            )

    def _submit_compute(self, unit: ComputeUnit, row: int, on_done) -> None:
        scale = self.schedule.compute_scale(self._table.gpu[row], self.sim.now)
        if scale != 1.0:
            # Stretch the run's copy of the row's seconds (not the unit, and
            # not the table) so the recorded span matches the submitted
            # duration and the TASK-DURATION check still holds.
            self._seconds[row] *= scale
        super()._submit_compute(unit, row, on_done)

    def _start_transfer(self, row: int, on_done) -> None:
        self._start[row] = self.sim.now
        self._attempt_transfer(row, on_done, attempt=1)

    def _attempt_transfer(self, row: int, on_done, attempt: int) -> None:
        """Issue one attempt; decide success/failure when the flow lands."""
        table = self._table
        label = table.label[row]
        rate = self.schedule.failure_probability(
            table.kinds[table.trace_kind[row]], self.sim.now
        )

        def on_flow_done() -> None:
            if rate > 0 and failure_coin(self.schedule.seed, label, attempt) < rate:
                self._on_attempt_failed(row, on_done, attempt)
            else:
                on_done()

        self.network.start_flow(
            table.paths[table.path_id[row]],
            table.nbytes[row],
            on_flow_done,
            priority=table.priority[row],
        )

    def _on_attempt_failed(self, row: int, on_done, attempt: int) -> None:
        label = self._table.label[row]
        retried = attempt < self.retry_policy.max_attempts
        self.failed_attempts.append(
            FailedAttempt(label, attempt, self.sim.now, retried)
        )
        if not retried:
            raise UnrecoverableTransferError(label, self.sim.now, attempt)
        self.sim.schedule(
            self.retry_policy.backoff(attempt),
            lambda: self._attempt_transfer(row, on_done, attempt + 1),
        )


@dataclasses.dataclass(frozen=True)
class FaultedStep:
    """Outcome of one training step executed under faults.

    Attributes:
        trace: The trace of the *successful* execution (degraded-mode
            re-execution when ``degraded``); always checker-clean.
        tasks: The task table that produced ``trace``, and ``times`` its
            realised times (for :func:`repro.check.trace_check.sanitize_run`).
        step_seconds: Wall time charged to the step, including the aborted
            attempt when degraded mode kicked in.
        degraded: Whether the step fell back to no-prefetch execution.
        abort_seconds: Sim time at which the first attempt aborted
            (0 when not degraded).
        failed_attempts: Every failed transfer attempt across both the
            aborted and the successful execution.
    """

    trace: Trace
    tasks: TaskTable
    times: TaskTimes
    step_seconds: float
    degraded: bool
    abort_seconds: float
    failed_attempts: tuple[FailedAttempt, ...]

    @property
    def n_retries(self) -> int:
        return sum(1 for f in self.failed_attempts if f.retried)


def run_step(
    plan: ExecutionPlan,
    topology: Topology,
    cost_model: CostModel,
    schedule: FaultSchedule,
    *,
    retry_policy: RetryPolicy = RetryPolicy(),
    prefetch: bool = True,
    use_priorities: bool = True,
) -> FaultedStep:
    """Execute one Mobius step under ``schedule``, recovering as needed.

    Raises:
        ValueError: If ``schedule`` contains :class:`GpuDropout` faults
            (handled by :mod:`repro.faults.replan`, not here).
    """
    stage_costs = plan.partition.stage_costs(cost_model)
    tasks = build_mobius_tasks(
        plan, topology, stage_costs, prefetch=prefetch, use_priorities=use_priorities
    )
    runner = FaultInjectingRunner(topology, schedule, retry_policy=retry_policy)
    try:
        trace = runner.execute(tasks)
    except UnrecoverableTransferError as err:
        # Degraded mode: re-run the step without prefetch overlap.  Fault
        # windows are re-entered from t=0 of the re-execution.
        degraded_tasks = build_mobius_tasks(
            plan, topology, stage_costs, prefetch=False, use_priorities=use_priorities
        )
        degraded_runner = FaultInjectingRunner(
            topology, schedule.without_flaky(), retry_policy=retry_policy
        )
        trace = degraded_runner.execute(degraded_tasks)
        return FaultedStep(
            trace=trace,
            tasks=degraded_tasks,
            times=degraded_runner.last_times,
            step_seconds=err.seconds + trace.makespan,
            degraded=True,
            abort_seconds=err.seconds,
            failed_attempts=tuple(
                runner.failed_attempts + degraded_runner.failed_attempts
            ),
        )
    return FaultedStep(
        trace=trace,
        tasks=tasks,
        times=runner.last_times,
        step_seconds=trace.makespan,
        degraded=False,
        abort_seconds=0.0,
        failed_attempts=tuple(runner.failed_attempts),
    )
