"""Suite-wide cell scheduler: one global work pool over every figure's cells.

Four steps take the suite's figures to computed cells:

1. **Enumerate** — every experiment module exposes a ``cells()`` protocol
   beside ``run()`` returning the :class:`~repro.experiments.
   runner.ExperimentCell`\\ s its ``run()`` will consume.
2. **Deduplicate** — cells flatten into one graph keyed by their
   ``"system"`` memoize digest: Figure 10 and Figure 11 sweep identical
   configurations, Figure 8 re-simulates a subset of Figure 7's grid,
   §2.3 re-reads Figure 2's cell — each is computed exactly once.
3. **Order** — cells whose plans collapse onto one MIP solve (same
   :func:`~repro.core.api.partition_solve_key`) wait for the first such
   cell, so the solve happens once and the rest hit the ``"partition"``
   cache.
4. **Drain** — ``jobs`` supervised process workers (the serve daemon's
   :class:`~repro.serve.supervisor.Supervisor`, running its ``"cell"``
   task) compute ready cells as dependencies resolve; ``jobs=1`` computes
   them inline.  Workers share the cache's durable store and a
   :class:`~repro.perf.cache.LeaseTable` (so two *processes* — a second
   concurrent suite, a daemon — never solve the same cell concurrently:
   the loser waits and reads the winner's result).  A worker that dies
   mid-cell is replaced and the cell retried; a cell that crashes workers
   ``quarantine_after`` times, or raises, fails alone — the other cells
   finish and are cached, then :class:`DrainFailed` names the failures.

Figures then run serially afterwards as pure cache-hit assembly passes.

Determinism: completion order and lease waits affect only *when* work
happens, never *what* any cell returns — a cell's result is a function of
the cell alone.  :func:`cell_result_fingerprint` pins exactly the
deterministic face of a result (status, simulated step time, trace digest,
execution plan), excluding search metadata like ``nodes_explored``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
from collections import deque
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from pathlib import Path

from repro.core.api import partition_solve_key
from repro.experiments.runner import ExperimentCell, SystemResult, run_cell
from repro.perf.cache import LeaseTable, get_cache, merge_stats, stats_delta
from repro.perf.fingerprint import fingerprint
from repro.perf.store import source_digest

__all__ = [
    "CellNode",
    "DrainFailed",
    "ScheduleReport",
    "build_schedule",
    "cell_result_fingerprint",
    "drain",
    "enumerate_cells",
    "figure_cells",
    "run_cells",
]

#: Subdirectory of the cache directory holding lease files.
LEASE_DIRNAME = "leases"


def _lease_namespace() -> str:
    """The lease namespace of this code revision's ``"system"`` cells.

    Keyed on the source digest like the store rows a lease holder writes,
    so a drain never waits on a process running other code.
    """
    return f"system.{source_digest()}"


def figure_cells(name: str, *, fast: bool = False) -> tuple[ExperimentCell, ...]:
    """One experiment module's cell enumeration.

    Modules whose work is not cell-shaped (Table 1's spec lookup, Figure
    13's training loop) return an empty tuple and simply run during the
    assembly pass.
    """
    module = importlib.import_module(f"repro.experiments.{name}")
    return tuple(module.cells(fast=fast))


def enumerate_cells(
    names: Sequence[str], *, fast: bool = False
) -> list[tuple[str, ExperimentCell]]:
    """Flatten ``(figure, cell)`` pairs over the requested modules, in order."""
    pairs: list[tuple[str, ExperimentCell]] = []
    for name in names:
        for cell in figure_cells(name, fast=fast):
            pairs.append((name, cell))
    return pairs


@dataclasses.dataclass
class CellNode:
    """One unique cell in the schedule graph."""

    index: int
    cell: ExperimentCell
    digest: str
    figures: list[str]
    deps: set[int] = dataclasses.field(default_factory=set)
    dependents: list[int] = dataclasses.field(default_factory=list)


def _solve_digest(cell: ExperimentCell) -> str | None:
    """Digest of the MIP partition solve a mobius cell will run.

    ``None`` for baseline-system cells and non-MIP ablations: they share
    no partition solves, so they carry no ordering constraints.
    """
    if cell.system != "mobius":
        return None
    config = cell.effective_mobius_config()
    if config.partition_method != "mip":
        return None
    return fingerprint(partition_solve_key(cell.model, cell.topology, config))


@dataclasses.dataclass
class Schedule:
    """The deduplicated, solve-ordered cell graph."""

    nodes: list[CellNode]
    cells_enumerated: int
    ordering_edges: int

    @property
    def cells_unique(self) -> int:
        return len(self.nodes)

    @property
    def cells_deduped(self) -> int:
        return self.cells_enumerated - len(self.nodes)


def build_schedule(pairs: Sequence[tuple[str, ExperimentCell]]) -> Schedule:
    """Dedup cells by memo digest and add solve-share edges."""
    nodes: list[CellNode] = []
    by_digest: dict[str, CellNode] = {}
    for figure, cell in pairs:
        digest = fingerprint(cell)
        node = by_digest.get(digest)
        if node is None:
            node = CellNode(index=len(nodes), cell=cell, digest=digest, figures=[])
            nodes.append(node)
            by_digest[digest] = node
        if figure not in node.figures:
            node.figures.append(figure)

    edges: set[tuple[int, int]] = set()  # (before, after)

    def add_edge(before: CellNode, after: CellNode) -> None:
        if before.index != after.index:
            edges.add((before.index, after.index))

    # Cells whose layer-to-stage split is the same budget-limited solve:
    # the first enumerated cell computes it, the rest wait and hit the
    # "partition" cache (zero duplicate solves by construction).
    solve_groups: dict[str, CellNode] = {}
    for node in nodes:
        solve_digest = _solve_digest(node.cell)
        if solve_digest is not None:
            add_edge(solve_groups.setdefault(solve_digest, node), node)

    for before, after in sorted(edges):
        nodes[after].deps.add(before)
        nodes[before].dependents.append(after)
    return Schedule(
        nodes=nodes,
        cells_enumerated=len(pairs),
        ordering_edges=len(edges),
    )


def cell_result_fingerprint(result: SystemResult) -> str:
    """Digest of a result's deterministic face.

    Includes the simulated step time, the trace's columnar digest and the
    execution plan.  The rest of the plan report is search metadata
    (``nodes_explored``) and the profile, whose ``profiling_seconds`` is
    the profiler's simulated time; none of it is a wall reading.
    """
    plan_report = result.extras.get("plan_report")
    return fingerprint(
        (
            result.system,
            result.status,
            result.step_seconds,
            result.trace.columnar_digest() if result.trace is not None else None,
            plan_report.plan if plan_report is not None else None,
        )
    )


@dataclasses.dataclass
class ScheduleReport:
    """What one drain did: dedup counters, per-process cache stats, digest."""

    jobs: int
    cells_enumerated: int
    cells_unique: int
    cells_deduped: int
    cells_precached: int
    cells_computed: int
    cells_shared: int  # found in a shared tier by the worker before leasing
    cells_coalesced: int  # lease lost to another process; read its result
    duplicate_solves: int  # drain-wide "system" misses beyond cells_computed
    ordering_edges: int
    worker_crashes: int  # workers that died mid-cell (each cost a retry)
    worker_cache: dict  # per-namespace stats summed over drain processes
    cells_fingerprint: str

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class DrainFailed(RuntimeError):
    """Cells no worker could compute; every other cell was computed and cached."""

    def __init__(self, failures: Sequence[tuple[CellNode, Exception]]) -> None:
        self.failures = list(failures)
        named = "; ".join(
            f"{'+'.join(node.figures)} cell {node.digest[:12]}: {err}"
            for node, err in self.failures
        )
        super().__init__(f"{len(self.failures)} cell(s) failed: {named}")


def _cell_worker(
    task: tuple[ExperimentCell, str, str | None],
) -> tuple[SystemResult, str, dict]:
    """Compute one cell under the lease protocol.

    Returns ``(result, outcome, stats_delta)`` where ``outcome`` is
    ``"computed"`` (this process ran the cell), ``"shared"`` (a shared
    cache tier already had it) or ``"coalesced"`` (another process held
    the lease; we waited and read its result).  Runs as the supervised
    workers' ``"cell"`` task and inline for ``jobs=1`` drains — the
    protocol is identical.  A worker that died holding a lease is joined
    before the cell is retried, so the retry reads the lease as broken on
    its first poll.
    """
    cell, digest, lease_dir = task
    cache = get_cache()
    before = cache.stats_snapshot()
    if lease_dir is None:
        result = run_cell(cell)
        outcome = "computed"
    else:
        leases = LeaseTable(lease_dir)
        namespace = _lease_namespace()
        value, found = cache.lookup("system", cell)
        if found:
            result, outcome = value, "shared"
        elif leases.acquire(namespace, digest):
            try:
                result = run_cell(cell)
            finally:
                leases.release(namespace, digest)
            outcome = "computed"
        else:
            verdict = leases.wait(namespace, digest)
            value, found = cache.lookup("system", cell)
            if found and verdict == "released":
                result, outcome = value, "coalesced"
            else:
                # The holder died or outlived the wait budget (or never
                # shared a cache tier with us): duplicate work beats a
                # missing result, and content-addressing keeps it safe.
                result = run_cell(cell)
                outcome = "computed"
    return result, outcome, stats_delta(before, cache.stats_snapshot())


def run_cells(
    names: Sequence[str],
    *,
    fast: bool = False,
    jobs: int = 1,
) -> ScheduleReport:
    """Enumerate, dedup, order and drain every cell of ``names``."""
    return drain(enumerate_cells(names, fast=fast), jobs=jobs)


def drain(
    pairs: Sequence[tuple[str, ExperimentCell]],
    *,
    jobs: int = 1,
) -> ScheduleReport:
    """Dedup, order and compute ``(figure, cell)`` pairs.

    Uses the process-global cache as configured by the caller (the suite
    wraps this in ``cache_overridden``).  When the disk tier is enabled,
    drain processes additionally share a lease table under the cache
    directory.

    Raises:
        DrainFailed: With ``jobs > 1``, after every other cell finished,
            if some cell crashed ``quarantine_after`` workers or raised.
    """
    schedule = build_schedule(pairs)
    cache = get_cache()

    lease_dir: str | None = None
    if cache.config.disk:
        lease_dir = str(Path(cache.config.directory) / LEASE_DIRNAME)

    counters = {"computed": 0, "shared": 0, "coalesced": 0}
    stats_deltas: list[dict] = []
    results: dict[int, SystemResult] = {}
    failures: list[tuple[CellNode, Exception]] = []
    precached = 0
    worker_crashes = 0

    remaining = {node.index: set(node.deps) for node in schedule.nodes}
    ready: deque[CellNode] = deque()
    waiting: set[int] = set()
    for node in schedule.nodes:
        if remaining[node.index]:
            waiting.add(node.index)
        else:
            ready.append(node)

    def complete(node: CellNode) -> None:
        for dependent in node.dependents:
            deps = remaining[dependent]
            deps.discard(node.index)
            if not deps and dependent in waiting:
                waiting.discard(dependent)
                ready.append(schedule.nodes[dependent])

    # Cells already present in a local tier need no worker round-trip.
    # (Dependency edges only pace work, so completing them here is safe.)
    pending_total = 0
    probe: deque[CellNode] = deque(ready)
    ready.clear()
    resolved: deque[CellNode] = deque()
    while probe:
        node = probe.popleft()
        value, found = cache.lookup("system", node.cell)
        if found:
            results[node.index] = value
            precached += 1
            complete(node)
            # complete() appends newly-ready nodes to `ready`; fold them
            # into the probe queue so chains of precached cells collapse
            # without a drain round.
            while ready:
                probe.append(ready.popleft())
        else:
            resolved.append(node)
            pending_total += 1
    ready = resolved
    pending_total += len(waiting)

    try:
        if pending_total:
            if jobs <= 1:
                while ready:
                    node = ready.popleft()
                    value, found = cache.lookup("system", node.cell)
                    if found:  # unlocked by a dependency that was precached
                        results[node.index] = value
                        precached += 1
                    else:
                        result, outcome, delta = _cell_worker(
                            (node.cell, node.digest, lease_dir)
                        )
                        results[node.index] = result
                        counters[outcome] += 1
                        stats_deltas.append(delta)
                    complete(node)
            else:
                # Imported here: a jobs=1 drain never loads repro.serve.
                from repro.serve.supervisor import (
                    ProcessWorker,
                    RequestQuarantined,
                    Supervisor,
                    WorkerSolveError,
                    WorkerUnavailable,
                )

                # Workers start lazily, on their first cell.
                supervisor = Supervisor(ProcessWorker, pool_size=jobs)
                try:
                    with ThreadPoolExecutor(jobs) as threads:
                        in_flight: dict = {}

                        def submit_ready() -> None:
                            while ready:
                                node = ready.popleft()
                                future = threads.submit(
                                    supervisor.solve,
                                    "cell",
                                    (node.cell, node.digest, lease_dir),
                                    node.digest,
                                )
                                in_flight[future] = node

                        submit_ready()
                        while in_flight:
                            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                            # Account completions in node order so counters
                            # and stats fold deterministically regardless of
                            # which worker finished first.
                            for future in sorted(done, key=lambda f: in_flight[f].index):
                                node = in_flight.pop(future)
                                try:
                                    result, outcome, delta = future.result().value
                                except (
                                    RequestQuarantined,
                                    WorkerSolveError,
                                    WorkerUnavailable,
                                ) as err:
                                    failures.append((node, err))
                                else:
                                    cache.adopt("system", node.cell, result)
                                    results[node.index] = result
                                    counters[outcome] += 1
                                    stats_deltas.append(delta)
                                # Edges only pace solve sharing: a failed
                                # cell's dependents still compute.
                                complete(node)
                            submit_ready()
                finally:
                    supervisor.close()
                worker_crashes = supervisor.crashes
    finally:
        if lease_dir is not None:
            # Crash hygiene: any lease this *drain* leaked is stale now.
            # Live leases of other processes are left alone (their PIDs
            # are alive), so this only drops our own.
            table = LeaseTable(lease_dir)
            namespace = _lease_namespace()
            for node in schedule.nodes:
                holder = table.holder(namespace, node.digest)
                if holder is not None and not table._alive(holder):
                    table.release(namespace, node.digest)
    if failures:
        raise DrainFailed(failures)

    worker_cache = merge_stats(*stats_deltas)
    drain_system_misses = worker_cache.get("system", {}).get("misses", 0)
    lines = sorted(
        f"{node.digest}:{cell_result_fingerprint(results[node.index])}"
        for node in schedule.nodes
    )
    cells_fingerprint = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()

    return ScheduleReport(
        jobs=jobs,
        cells_enumerated=schedule.cells_enumerated,
        cells_unique=schedule.cells_unique,
        cells_deduped=schedule.cells_deduped,
        cells_precached=precached,
        cells_computed=counters["computed"],
        cells_shared=counters["shared"],
        cells_coalesced=counters["coalesced"],
        duplicate_solves=max(0, drain_system_misses - counters["computed"]),
        ordering_edges=schedule.ordering_edges,
        worker_crashes=worker_crashes,
        worker_cache=worker_cache,
        cells_fingerprint=cells_fingerprint,
    )
