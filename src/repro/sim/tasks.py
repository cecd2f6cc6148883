"""Task-graph execution on top of the simulator.

Schedulers (Mobius, GPipe, DeepSpeed) do not drive the event loop directly;
they emit rows into one :class:`TaskTable`:

* :meth:`TaskTable.compute` — runs for a fixed duration on one GPU's
  :class:`~repro.sim.resources.ComputeUnit` (FIFO per GPU, like a CUDA
  stream);
* :meth:`TaskTable.transfer` — a flow over a topology path,
  bandwidth-shared with all concurrent flows;
* :meth:`TaskTable.barrier` — zero-cost synchronisation point.

Each emit returns the row's integer handle, and dependencies are declared
by handle.  A row becomes *ready* when all its dependencies complete;
ready compute rows queue on their GPU, ready transfers enter the
:class:`~repro.sim.resources.FlowNetwork`.  Zero-time rows (barriers, and
transfers with zero bytes or an empty path) take no simulator event: they
complete at the instant they become ready, ahead of any other event at
that time, through a FIFO worklist rather than recursion, so a chain of
barriers cannot deepen the stack.  The :class:`TaskGraphRunner`
executes the whole table by row id and records a
:class:`~repro.sim.trace.Trace`; the realised times live on the runner
(:class:`TaskTimes`), never on the table, so one table can be executed any
number of times.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable
from functools import partial

import numpy as np

from repro.hardware.topology import Path, Topology
from repro.sim.engine import Simulator
from repro.sim.resources import ComputeUnit, FlowNetwork
from repro.sim.trace import Trace

__all__ = [
    "COMPUTE",
    "TRANSFER",
    "BARRIER",
    "TaskTable",
    "TaskTimes",
    "TaskGraphRunner",
    "DeadlockError",
]

#: Row kinds (the ``op`` column).
COMPUTE, TRANSFER, BARRIER = 0, 1, 2


class DeadlockError(RuntimeError):
    """Raised when a task graph cannot make progress (cyclic dependencies)."""


class TaskTable:
    """One task graph as parallel columns, one row per task.

    Columns (plain lists, indexed by row handle): ``op`` (:data:`COMPUTE`,
    :data:`TRANSFER` or :data:`BARRIER`), ``gpu``, ``seconds``, ``nbytes``
    (the Python number as given, so an ``int`` byte count stays an ``int``
    in the trace), ``path_id`` into :attr:`paths`, ``priority``,
    ``trace_kind`` into :attr:`kinds` and ``label``.  Dependency edges are
    kept in declaration order; a duplicate edge counts twice.

    Example:
        >>> table = TaskTable()
        >>> a = table.compute(0, 1.0, "F0,0")
        >>> b = table.barrier("sync", after=(a, None))
        >>> table.after(b, a)
        1
        >>> len(table), [column.tolist() for column in table.edges()]
        (2, [[0, 0], [1, 1]])
    """

    def __init__(self) -> None:
        self.op: list[int] = []
        self.gpu: list[int] = []
        self.seconds: list[float] = []
        self.nbytes: list[float] = []
        self.path_id: list[int] = []
        self.priority: list[int] = []
        self.trace_kind: list[int] = []
        self.label: list[str] = []
        #: Interned transfer paths and trace kinds, in first-emit order.
        self.paths: list[Path] = []
        self.kinds: list[str] = []
        self._path_ids: dict[int, int] = {}
        self._kind_codes: dict[str, int] = {}
        self._dep_src: list[int] = []
        self._dep_dst: list[int] = []

    def __len__(self) -> int:
        return len(self.op)

    # ------------------------------------------------------------------
    # Emitting rows
    # ------------------------------------------------------------------

    def compute(
        self,
        gpu: int,
        seconds: float,
        label: str = "",
        *,
        after: Iterable[int | None] = (),
    ) -> int:
        """A kernel of ``seconds`` on ``gpu``; returns its row handle."""
        return self._emit(COMPUTE, gpu, seconds, 0, -1, 0, -1, label, after)

    def transfer(
        self,
        path: Path,
        nbytes: float,
        gpu: int = 0,
        kind: str = "",
        priority: int = 0,
        label: str = "",
        *,
        after: Iterable[int | None] = (),
    ) -> int:
        """A transfer of ``nbytes`` along ``path``; returns its row handle.

        Args:
            gpu: Owner GPU for trace/overlap accounting (usually the GPU
                whose execution depends on the transferred bytes).
            kind: Trace category (``"param-upload"``, ``"allgather"``, ...).
            priority: Flow priority; higher preempts lower (§3.3 prefetch
                priorities).
        """
        # Interned by identity: the topology hands out shared path tuples,
        # and the table keeps each interned one alive.
        path_id = self._path_ids.get(id(path))
        if path_id is None:
            path_id = self._path_ids[id(path)] = len(self.paths)
            self.paths.append(path)
        code = self._kind_codes.get(kind)
        if code is None:
            code = self._kind_codes[kind] = len(self.kinds)
            self.kinds.append(kind)
        return self._emit(TRANSFER, gpu, 0.0, nbytes, path_id, priority, code, label, after)

    def barrier(self, label: str = "", *, after: Iterable[int | None] = ()) -> int:
        """A zero-duration synchronisation row; returns its handle."""
        return self._emit(BARRIER, 0, 0.0, 0, -1, 0, -1, label, after)

    def after(self, row: int, *deps: int | None) -> int:
        """Add dependencies to an emitted ``row`` (``None`` is skipped)."""
        n = len(self.op)
        if not (isinstance(row, int) and 0 <= row < n):
            raise ValueError(f"task handle {row!r} is not a row of this table ({n} rows)")
        self._link(row, deps, n)
        return row

    def _emit(self, op, gpu, seconds, nbytes, path_id, priority, trace_kind, label, after) -> int:
        """Append one row to every column; all three emitters end here."""
        row = len(self.op)
        if after:
            self._link(row, after, row)
        self.op.append(op)
        self.gpu.append(gpu)
        self.seconds.append(seconds)
        self.nbytes.append(nbytes)
        self.path_id.append(path_id)
        self.priority.append(priority)
        self.trace_kind.append(trace_kind)
        self.label.append(label)
        return row

    def _link(self, row: int, deps: Iterable[int | None], limit: int) -> None:
        """Record ``row``'s dependencies; each must be a row below ``limit``.

        A rejected call leaves the table as it was.
        """
        src, dst = self._dep_src, self._dep_dst
        recorded = len(src)
        for dep in deps:
            if dep is None:
                continue
            if not (isinstance(dep, int) and 0 <= dep < limit):
                del src[recorded:], dst[recorded:]
                raise ValueError(
                    f"dependency handle {dep!r} is not a row of this table "
                    f"({limit} rows)"
                )
            src.append(dep)
            dst.append(row)

    # ------------------------------------------------------------------
    # Reading the graph
    # ------------------------------------------------------------------

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``(dependency, dependent)`` row arrays in declaration order."""
        return (
            np.array(self._dep_src, dtype=np.int64),
            np.array(self._dep_dst, dtype=np.int64),
        )

    def successors(self) -> tuple[list[int], list[int], list[int]]:
        """The successor CSR: ``(offsets, successors, indegree)``.

        Row ``r``'s successors are ``successors[offsets[r]:offsets[r + 1]]``,
        ordered by dependent row and then by declaration — the order a
        walk over the rows and each row's dependencies appends them in.  A
        dependency declared twice appears twice and counts twice in the
        dependent's indegree.
        """
        n = len(self.op)
        src, dst = self.edges()
        order = np.lexsort((dst, src))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
        return (
            offsets.tolist(),
            dst[order].tolist(),
            np.bincount(dst, minlength=n).tolist(),
        )


@dataclasses.dataclass(frozen=True)
class TaskTimes:
    """Realised per-row times of one execution of a :class:`TaskTable`.

    Attributes:
        start: When each row began work (NaN: never started).
        end: When each row completed (NaN: never completed).
        seconds: Each compute row's duration as submitted to its GPU — the
            table's value, stretched when a fault runner slowed the GPU.
    """

    start: np.ndarray
    end: np.ndarray
    seconds: np.ndarray


def _stamp(times: list[float], sim: Simulator, row: int) -> None:
    times[row] = sim.now


class TaskGraphRunner:
    """Executes a task table on a topology, producing a trace.

    Example:
        >>> from repro.hardware.topology import topo_2_2
        >>> topo = topo_2_2()
        >>> table = TaskTable()
        >>> up = table.transfer(topo.path_from_dram(0), 1e9, gpu=0)
        >>> work = table.compute(0, 0.5, after=(up,))
        >>> trace = TaskGraphRunner(topo).execute(table)
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
        #: Introspection hooks for post-run verification: the table and
        #: realised times of the most recent :meth:`execute` call (``None``
        #: before).  :mod:`repro.check.trace_check` replays these against
        #: the causality and duration invariants.
        self.last_tasks: TaskTable | None = None
        self.last_times: TaskTimes | None = None
        # Per-execution state the dispatch seams read: the table being run,
        # its realised start times so far, and the run's copy of its
        # seconds column.
        self._table = TaskTable()
        self._start: list[float] = []
        self._seconds: list[float] = []

    def execute(self, tasks: TaskTable) -> Trace:
        """Run every row of ``tasks`` to completion; return the trace.

        Trace spans are recorded in completion order: compute rows with
        positive seconds and transfer rows with positive bytes.

        Raises:
            DeadlockError: If some rows never become ready (dependency
                cycle).
            ValueError: If a recorded row has no realised start (a dispatch
                seam that did not stamp it) or is otherwise a span the
                :class:`~repro.sim.trace.Trace` constructor rejects.
        """
        table = tasks
        n = len(table)
        offsets, successors, pending = table.successors()
        op, gpu, nbytes = table.op, table.gpu, table.nbytes
        paths, path_id = table.paths, table.path_id
        units = self.compute_units
        sim = self.sim
        start = [math.nan] * n
        end = [math.nan] * n
        done: list[int] = []
        self._table = table
        self._start = start
        self._seconds = list(table.seconds)
        submit_compute = self._submit_compute
        start_transfer = self._start_transfer

        def release(row: int, now_rows: list[int]) -> None:
            # Dispatch a row whose dependencies are all complete.  A
            # zero-time row (barrier, zero-byte or empty-path transfer)
            # joins `now_rows`, the rows completing at this instant; any
            # other row completes through `finish([row])`.
            kind = op[row]
            if kind == COMPUTE:
                submit_compute(units[gpu[row]], row, partial(finish, [row]))
            elif kind == TRANSFER and nbytes[row] and paths[path_id[row]]:
                start_transfer(row, partial(finish, [row]))
            else:
                start[row] = sim.now
                now_rows.append(row)

        def finish(now_rows: list[int]) -> None:
            # Complete `now_rows` at this instant.  A worklist, not
            # recursion, so a chain of zero-time rows cannot deepen the
            # stack; rows complete in FIFO order.
            now = sim.now
            for row in now_rows:  # grows while it is walked
                end[row] = now
                done.append(row)
                for child in successors[offsets[row] : offsets[row + 1]]:
                    left = pending[child] - 1
                    pending[child] = left
                    if not left:
                        release(child, now_rows)

        roots: list[int] = []
        for row in range(n):
            if not pending[row]:
                release(row, roots)
        finish(roots)

        sim.run()

        if len(done) < n:
            stuck = [
                table.label[row] or f"task#{row}"
                for row in range(n)
                if math.isnan(end[row])
            ]
            raise DeadlockError(
                f"{n - len(done)} tasks never completed (cycle?): {stuck[:10]}"
            )
        times = TaskTimes(
            start=np.array(start, dtype=np.float64),
            end=np.array(end, dtype=np.float64),
            seconds=np.array(self._seconds, dtype=np.float64),
        )
        self.last_tasks = table
        self.last_times = times
        return self._trace(table, times, done)

    def _start_transfer(self, row: int, on_done) -> None:
        """Issue one transfer row, with bytes and a path, as a flow; the
        seam for retry/fault wrappers.  Call ``on_done()`` exactly once,
        when it is done."""
        table = self._table
        self._start[row] = self.sim.now
        self.network.start_flow(
            table.paths[table.path_id[row]],
            table.nbytes[row],
            on_done,
            priority=table.priority[row],
        )

    def _submit_compute(self, unit: ComputeUnit, row: int, on_done) -> None:
        """Queue one compute row on ``unit``; the seam for fault wrappers.

        The row's start is stamped when the unit picks it up (the unit may
        be busy).  It runs for this run's copy of its seconds, which a
        fault runner may stretch.
        """
        unit.submit(
            self._seconds[row], on_done, partial(_stamp, self._start, self.sim, row)
        )

    def _trace(self, table: TaskTable, times: TaskTimes, done: list[int]) -> Trace:
        """The trace of one execution, gathered from the columns at once."""
        order = np.array(done, dtype=np.int64)
        op = np.array(table.op)[order]
        nbytes = np.array(table.nbytes, dtype=np.float64)
        compute = order[(op == COMPUTE) & (times.seconds[order] > 0)]
        transfer = order[(op == TRANSFER) & (nbytes[order] > 0)]
        spans = {
            "gpu": np.array(table.gpu, dtype=np.int64),
            "start": times.start,
            "end": times.end,
        }

        def gather(rows: np.ndarray) -> dict:
            columns = {name: column[rows] for name, column in spans.items()}
            columns["label"] = [table.label[row] for row in rows.tolist()]
            return columns

        # Trace kind codes count from the first *recorded* span, not from
        # the table's emit order.
        codes = np.array(table.trace_kind, dtype=np.int64)[transfer]
        kinds, first = np.unique(codes, return_index=True)
        kinds = kinds[np.argsort(first)]
        remap = np.zeros(len(table.kinds), dtype=np.int32)
        remap[kinds] = np.arange(len(kinds))
        transfers = gather(transfer)
        transfers.update(
            nbytes=nbytes[transfer],
            nbytes_int=[isinstance(table.nbytes[row], int) for row in transfer.tolist()],
            kind_code=remap[codes],
            kinds=[table.kinds[code] for code in kinds.tolist()],
        )
        return Trace(self.topology.n_gpus, compute=gather(compute), transfers=transfers)
