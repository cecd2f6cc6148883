"""Task-graph execution on top of the simulator.

Schedulers (Mobius, GPipe, DeepSpeed) do not drive the event loop directly;
they emit a *task graph*:

* :class:`ComputeTask` — runs for a fixed duration on one GPU's
  :class:`~repro.sim.resources.ComputeUnit` (FIFO per GPU, like a CUDA
  stream);
* :class:`TransferTask` — a flow over a topology path, bandwidth-shared with
  all concurrent flows;
* :class:`BarrierTask` — zero-cost synchronisation point.

A task becomes *ready* when all its dependencies complete; ready compute
tasks queue on their GPU, ready transfers enter the
:class:`~repro.sim.resources.FlowNetwork`.  The :class:`TaskGraphRunner`
executes the whole graph and records a :class:`~repro.sim.trace.Trace`.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from collections.abc import Sequence

from repro.hardware.topology import Path, Topology
from repro.sim.engine import Simulator
from repro.sim.resources import ComputeUnit, FlowNetwork
from repro.sim.trace import Trace

__all__ = [
    "Task",
    "ComputeTask",
    "TransferTask",
    "BarrierTask",
    "TaskGraphRunner",
    "DeadlockError",
]

_uid_counter = itertools.count()


def _next_task_uid() -> int:
    """Synchronization seam: allocate a task uid (MOB007-sanctioned).

    ``next()`` on :func:`itertools.count` is atomic under the GIL (a single
    C-level call), so concurrent graph builders get distinct uids.  Uids
    order heap ties *within* one graph; across processes each worker's
    counter restarts, which is fine — task graphs never cross processes.
    """
    return next(_uid_counter)


class _State(enum.Enum):
    WAITING = "waiting"
    READY = "ready"
    DONE = "done"


class DeadlockError(RuntimeError):
    """Raised when a task graph cannot make progress (cyclic dependencies)."""


@dataclasses.dataclass(eq=False, slots=True)
class Task:
    """Base task-graph node; use the concrete subclasses.

    Slotted: a 1024-GPU scenario executes ~10^6 task nodes, and per-node
    ``__dict__`` overhead dominated graph memory before anything ran.
    """

    label: str = ""
    deps: list["Task"] = dataclasses.field(default_factory=list)
    uid: int = dataclasses.field(init=False, repr=False, default=0)
    state: _State = dataclasses.field(init=False, repr=False, default=_State.WAITING)
    start_time: float | None = dataclasses.field(init=False, repr=False, default=None)
    end_time: float | None = dataclasses.field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        self.uid = _next_task_uid()

    def after(self, *tasks: "Task | None") -> "Task":
        """Add dependencies (``None`` entries are skipped); returns self."""
        for task in tasks:
            if task is not None:
                self.deps.append(task)
        return self

    @property
    def done(self) -> bool:
        return self.state is _State.DONE


@dataclasses.dataclass(eq=False, slots=True)
class ComputeTask(Task):
    """A kernel of fixed duration on one GPU."""

    gpu: int = 0
    seconds: float = 0.0


@dataclasses.dataclass(eq=False, slots=True)
class TransferTask(Task):
    """A data transfer along a topology path.

    Attributes:
        gpu: Owner GPU for trace/overlap accounting (usually the GPU whose
            execution depends on the transferred bytes).
        kind: Trace category (``"stage-upload"``, ``"allgather"``, ...).
        priority: Flow priority; higher preempts lower (§3.3 prefetch
            priorities).
    """

    path: Path = ()
    nbytes: float = 0.0
    gpu: int = 0
    kind: str = ""
    priority: int = 0


@dataclasses.dataclass(eq=False, slots=True)
class BarrierTask(Task):
    """Zero-duration synchronisation node."""


class TaskGraphRunner:
    """Executes a task graph on a topology, producing a trace.

    Example:
        >>> from repro.hardware.topology import topo_2_2
        >>> topo = topo_2_2()
        >>> up = TransferTask(path=topo.path_from_dram(0), nbytes=1e9, gpu=0)
        >>> work = ComputeTask(gpu=0, seconds=0.5).after(up)
        >>> trace = TaskGraphRunner(topo).execute([up, work])
        >>> round(trace.makespan, 3)
        0.576
    """

    def __init__(
        self,
        topology: Topology,
        *,
        simulator: Simulator | None = None,
    ) -> None:
        """Args:
            topology: Hardware the graph executes on.
            simulator: Shared event loop (a fresh one by default).
        """
        self.topology = topology
        self.sim = simulator or Simulator()
        self.network = FlowNetwork(self.sim, topology)
        self.compute_units = [
            ComputeUnit(self.sim, f"gpu{i}") for i in range(topology.n_gpus)
        ]
        #: Introspection hooks for post-run verification: the task list and
        #: trace of the most recent :meth:`execute` call (``None`` before).
        #: :mod:`repro.check.trace_check` replays these against the
        #: topology's causality and link-capacity invariants.
        self.last_tasks: list[Task] | None = None
        self.last_trace: Trace | None = None

    def execute(self, tasks: Sequence[Task]) -> Trace:
        """Run all ``tasks`` to completion and return the recorded trace.

        Raises:
            DeadlockError: If some tasks never become ready (dependency
                cycle, or dependency on a task not in ``tasks``).
        """
        tasks = list(tasks)
        trace = Trace(self.topology.n_gpus)
        children: dict[int, list[Task]] = {}
        pending: dict[int, int] = {}
        task_set = {t.uid for t in tasks}
        remaining = len(tasks)

        for task in tasks:
            for dep in task.deps:
                if dep.uid not in task_set:
                    raise DeadlockError(
                        f"task {task.label!r} depends on {dep.label!r}, "
                        "which is not part of the executed graph"
                    )
            pending[task.uid] = len(task.deps)
            for dep in task.deps:
                children.setdefault(dep.uid, []).append(task)

        def complete(task: Task) -> None:
            nonlocal remaining
            task.state = _State.DONE
            task.end_time = self.sim.now
            remaining -= 1
            self._record(task, trace)
            for child in children.get(task.uid, ()):
                pending[child.uid] -= 1
                if pending[child.uid] == 0:
                    dispatch(child)

        def dispatch(task: Task) -> None:
            task.state = _State.READY
            self._dispatch_task(task, complete)

        for task in tasks:
            if pending[task.uid] == 0:
                dispatch(task)

        self.sim.run()

        if remaining:
            stuck = [t.label or f"task#{t.uid}" for t in tasks if not t.done]
            raise DeadlockError(
                f"{remaining} tasks never completed (cycle?): {stuck[:10]}"
            )
        self.last_tasks = tasks
        self.last_trace = trace
        return trace

    def _dispatch_task(self, task: Task, complete) -> None:
        """Route a ready task to its resource.

        ``complete`` is the graph-progress callback: call it with ``task``
        exactly once, when the task's work is done.  Subclasses (the fault
        runner in :mod:`repro.faults.recovery`) override the per-type hooks
        below rather than this router.
        """
        if isinstance(task, ComputeTask):
            unit = self.compute_units[task.gpu]

            def on_start_wrapper() -> None:
                complete(task)

            # Record the queuing moment separately from execution: the
            # compute unit may be busy.  We capture the real start by
            # submitting a closure that stamps time when the unit picks
            # the task up.
            self._submit_compute(unit, task, on_start_wrapper)
        elif isinstance(task, TransferTask):
            self._start_transfer(task, complete)
        elif isinstance(task, BarrierTask):
            task.start_time = self.sim.now
            self.sim.schedule_call(0.0, lambda: complete(task))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown task type: {type(task).__name__}")

    def _start_transfer(self, task: TransferTask, complete) -> None:
        """Issue one transfer as a flow; the seam for retry/fault wrappers."""
        task.start_time = self.sim.now
        self.network.start_flow(
            task.path,
            task.nbytes,
            lambda: complete(task),
            priority=task.priority,
            label=task.label,
        )

    def _submit_compute(self, unit: ComputeUnit, task: ComputeTask, on_done) -> None:
        def timed_done() -> None:
            on_done()

        # The ComputeUnit handles FIFO queuing; stamp the actual start time
        # by wrapping submission in a zero-length preamble.
        def begin() -> None:
            task.start_time = self.sim.now

        unit.submit(0.0, begin)
        unit.submit(task.seconds, timed_done)

    @staticmethod
    def _record(task: Task, trace: Trace) -> None:
        start = task.start_time if task.start_time is not None else task.end_time
        end = task.end_time
        assert end is not None
        if isinstance(task, ComputeTask) and task.seconds > 0:
            trace.add_compute(task.gpu, start, end, task.label)
        elif isinstance(task, TransferTask) and task.nbytes > 0:
            trace.add_transfer(task.gpu, start, end, task.nbytes, task.kind, task.label)
