"""Supervised workers: crash detection, restart pacing, quarantine.

Every worker process ``src/`` starts is a supervised worker.  A worker
runs one of a closed set of named tasks (:data:`TASKS`): ``"plan"`` is
``plan_mobius`` for the serve daemon, ``"cell"`` is the suite drain's
:func:`~repro.experiments.schedule._cell_worker`.  The daemon never plans
on its own thread for real work and the drain never computes a cell on
its own thread when ``jobs > 1`` — a bug (or a chaos-injected kill) must
cost one worker, not the caller.  The :class:`Supervisor` wraps every
task in the crash ladder:

1. a worker crash (process death mid-task, detected as EOF on its pipe)
   joins and discards the worker and restarts a fresh one, paced by the
   exponential-backoff schedule of a :class:`repro.faults.recovery.
   RetryPolicy` — the same deterministic delay sequence the simulator's
   transfer retries use;
2. a key whose task has crashed workers ``quarantine_after`` times is
   declared poison: the in-flight call raises :class:`RequestQuarantined`
   and later calls are rejected at once, so one bad request or cell
   cannot crash-loop its caller;
3. a worker that *returns* an error (task exception, not a death) is not
   retried — plans and cells are deterministic, so the same task would
   fail identically on a fresh worker.

Two worker implementations share one duck-type
(``solve(task, args, sabotage=None)`` + ``close()``): :class:`InlineWorker`
runs the task on the calling thread (tests, ``repro serve`` without
process isolation) and :class:`ProcessWorker` runs
:func:`_process_worker_main` in a spawned child over a pipe.  The child
adopts the parent's cache configuration and, when given a store path,
hands that :class:`~repro.perf.store.DurableStore` to its result cache,
so a freshly restarted worker inherits the cached results of every worker
that died before it.

``sabotage`` is the chaos seam: a harness installs a deterministic
``Supervisor.sabotage_hook`` deciding per (key, attempt) whether a worker
dies mid-task.  Production paths never set it.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import time

from repro.core.api import plan_mobius
from repro.faults.recovery import RetryPolicy
from repro.perf.cache import CacheConfig, configure_cache, get_cache
from repro.perf.store import DurableStore, source_digest
from repro.serve.requests import ServeError

__all__ = [
    "InlineWorker",
    "ProcessWorker",
    "RequestQuarantined",
    "SolveOutcome",
    "Supervisor",
    "SupervisorConfig",
    "WorkerCrashed",
    "WorkerSolveError",
    "WorkerUnavailable",
]


#: The named tasks a supervised worker runs.
TASKS = ("plan", "cell")


class WorkerCrashed(ServeError):
    """The worker died mid-task (pipe EOF / simulated kill)."""


class WorkerSolveError(ServeError):
    """The worker survived but the task itself raised."""


class WorkerUnavailable(ServeError):
    """Every restart the policy allowed was consumed without a result."""

    def __init__(self, solve_key: str, attempts: int) -> None:
        super().__init__(
            f"solve {solve_key[:12]} failed on {attempts} worker attempt(s); "
            "restart budget exhausted"
        )
        self.solve_key = solve_key
        self.attempts = attempts


class RequestQuarantined(ServeError):
    """The request crashed workers too often and is now refused."""

    def __init__(self, solve_key: str, crashes: int) -> None:
        super().__init__(
            f"solve {solve_key[:12]} quarantined after crashing "
            f"{crashes} worker(s)"
        )
        self.solve_key = solve_key
        self.crashes = crashes


@dataclasses.dataclass(frozen=True)
class SupervisorConfig:
    """Restart pacing and poison threshold.

    Attributes:
        restart_policy: Worker-restart budget; ``max_attempts`` bounds
            attempts per call, the backoff sequence paces the restarts
            between them.
        quarantine_after: Worker crashes (cumulative per solve key, across
            calls) before the key is declared poison.
    """

    restart_policy: RetryPolicy = RetryPolicy(
        max_attempts=3, base_delay=1e-3, max_delay=0.25
    )
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )


@dataclasses.dataclass(frozen=True)
class SolveOutcome:
    """A successful supervised task, with the recovery effort it took."""

    value: object
    attempts: int
    restarts: int


def _run_task(task: str, args: tuple):
    """Run one named task by direct call: no callable crosses a pipe."""
    if task == "plan":
        return plan_mobius(*args)
    if task == "cell":
        # Imported here: the daemon never loads the experiment stack.
        from repro.experiments.schedule import _cell_worker

        return _cell_worker(args)
    raise ValueError(f"unknown worker task {task!r}; expected one of {TASKS}")


class InlineWorker:
    """Runs tasks on the calling thread; crashes are simulated via sabotage."""

    def __init__(self) -> None:
        self.alive = True

    def solve(self, task: str, args: tuple, sabotage: str | None = None):
        if sabotage == "crash":
            self.alive = False
            raise WorkerCrashed("inline worker sabotaged mid-task")
        try:
            return _run_task(task, args)
        except Exception as err:
            raise WorkerSolveError(f"{type(err).__name__}: {err}") from err

    def close(self) -> None:
        self.alive = False


def _process_worker_main(
    conn, store_path: str | None, cache_config: CacheConfig, digest: str
) -> None:
    """Child-process loop: adopt the parent's cache, then run tasks until EOF.

    Runs in a fresh interpreter (spawn start method).  The child takes the
    parent's cache tiers, directory and source digest, so drain workers
    share the disk store and lease table; opening ``store_path`` is what
    gives a brand-new serve worker the plans its predecessors cached.
    """
    configure_cache(
        memory=cache_config.memory,
        disk=cache_config.disk,
        directory=cache_config.directory,
        source_digest=digest,
    )
    store = None
    if store_path is not None:
        store = DurableStore(store_path)
        get_cache().use_store(store)
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            if message[0] == "exit":
                return
            _, task, args, sabotage = message
            if sabotage == "crash":
                os._exit(17)  # die without flushing: a real mid-task crash
            try:
                value = _run_task(task, args)
            except Exception as err:
                conn.send(("error", f"{type(err).__name__}: {err}"))
            else:
                conn.send(("ok", value))
    finally:
        if store is not None:
            store.close()


class ProcessWorker:
    """One worker child process over a pipe; started lazily, restartable.

    Children are always spawned: forking a threaded parent could inherit
    locks mid-acquisition.  A dead child is joined before it is reported,
    so a lease it held names a reaped PID and reads as broken at once.
    """

    def __init__(self, store_path: str | os.PathLike | None = None) -> None:
        self.store_path = str(store_path) if store_path is not None else None
        self._process: multiprocessing.process.BaseProcess | None = None
        self._conn = None

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def _ensure_started(self) -> None:
        if self.alive:
            return
        context = multiprocessing.get_context("spawn")
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_process_worker_main,
            args=(child_conn, self.store_path, get_cache().config, source_digest()),
            name="repro-worker",
            daemon=True,
        )
        self._process.start()
        child_conn.close()  # parent keeps one end only: EOF means death

    def solve(self, task: str, args: tuple, sabotage: str | None = None):
        self._ensure_started()
        try:
            self._conn.send(("solve", task, args, sabotage))
            kind, payload = self._conn.recv()
        except (EOFError, BrokenPipeError, OSError) as err:
            self.close()
            raise WorkerCrashed(f"worker died mid-task: {err!r}") from err
        if kind == "error":
            raise WorkerSolveError(payload)
        return payload

    def kill(self) -> None:
        """Chaos seam: kill the child outright (as the harness does)."""
        if self._process is not None and self._process.is_alive():
            self._process.kill()
            self._process.join()

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
            self._conn.close()
            self._conn = None
        if self._process is not None:
            self._process.join(timeout=5.0)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()
            self._process = None


class Supervisor:
    """Runs tasks on a pool of workers, restarting and quarantining.

    The pool owns up to ``pool_size`` worker leases: a task checks a
    worker out (blocking while all leases are taken, which only happens
    when more threads than ``pool_size`` call in), runs, and checks it
    back in — crashed workers are discarded on check-in and replaced
    lazily by the next checkout.  Crash counts, quarantine, and the
    public counters are shared across the whole pool under one lock, so
    the poison ladder behaves identically at any pool size: a key that
    crashes workers ``quarantine_after`` times is poison no matter which
    workers it killed.  ``pool_size=1`` preserves the original
    single-worker supervisor exactly.
    """

    def __init__(
        self,
        worker_factory,
        config: SupervisorConfig | None = None,
        *,
        sleeper=time.sleep,
        pool_size: int = 1,
    ) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self.worker_factory = worker_factory
        self.config = config or SupervisorConfig()
        self.pool_size = pool_size
        self._sleep = sleeper  # injectable so tests never actually wait
        self._lock = threading.Lock()
        self._workers_free = threading.Condition(self._lock)
        self._idle: list = []
        self._leased = 0
        self._pool_closed = False
        #: Cumulative worker crashes per solve key (poison detection).
        self._crash_counts: dict[str, int] = {}
        self._quarantined: dict[str, int] = {}
        #: Chaos seam: ``fn(solve_key, attempt) -> sabotage | None``.
        self.sabotage_hook = None
        self.crashes = 0
        self.restarts = 0

    def is_quarantined(self, solve_key: str) -> bool:
        with self._lock:
            return solve_key in self._quarantined

    def _checkout_worker(self):
        """Lease a worker, blocking while all ``pool_size`` are leased."""
        with self._workers_free:
            while self._leased >= self.pool_size and not self._pool_closed:
                self._workers_free.wait()
            if self._pool_closed:
                raise WorkerUnavailable("(pool-closed)", 0)
            self._leased += 1
            while self._idle:
                worker = self._idle.pop()
                if getattr(worker, "alive", True):
                    return worker
                self._close_quietly(worker)
        # Construction happens outside the lock: a slow ProcessWorker
        # spawn must not stall the other dispatch threads' checkouts.
        try:
            return self.worker_factory()
        except BaseException:
            # The lease is already counted; hand it back or a factory
            # failure (fd/memory pressure) permanently shrinks the pool
            # until every dispatch thread blocks in wait() forever.
            with self._workers_free:
                self._leased -= 1
                self._workers_free.notify()
            raise

    def _checkin_worker(self, worker, *, discard: bool) -> None:
        if discard:
            self._close_quietly(worker)
        with self._workers_free:
            self._leased -= 1
            if not discard and not self._pool_closed and getattr(worker, "alive", True):
                self._idle.append(worker)
            elif not discard:
                self._close_quietly(worker)
            self._workers_free.notify()

    @staticmethod
    def _close_quietly(worker) -> None:
        try:
            worker.close()
        except Exception:
            pass

    def solve(self, task: str, args: tuple, solve_key: str) -> SolveOutcome:
        """Run the named ``task`` on ``args`` under supervision.

        ``solve_key`` identifies the work for crash counting and
        quarantine: equal keys must name equal work.

        Raises:
            RequestQuarantined: The key is (or just became) poison.
            WorkerUnavailable: The restart budget ran out before a result.
            WorkerSolveError: The task itself failed (not retried — plans
                and cells are deterministic).
        """
        with self._lock:
            if solve_key in self._quarantined:
                raise RequestQuarantined(solve_key, self._quarantined[solve_key])
        policy = self.config.restart_policy
        attempts = 0
        restarts = 0
        for attempt in range(1, policy.max_attempts + 1):
            worker = self._checkout_worker()
            sabotage = (
                self.sabotage_hook(solve_key, attempt)
                if self.sabotage_hook is not None
                else None
            )
            attempts += 1
            try:
                value = worker.solve(task, args, sabotage=sabotage)
            except WorkerCrashed:
                self._checkin_worker(worker, discard=True)
                with self._lock:
                    self.crashes += 1
                    crashed = self._crash_counts.get(solve_key, 0) + 1
                    self._crash_counts[solve_key] = crashed
                    if crashed >= self.config.quarantine_after:
                        self._quarantined[solve_key] = crashed
                        raise RequestQuarantined(solve_key, crashed) from None
                if attempt < policy.max_attempts:
                    self._sleep(policy.backoff(attempt))
                    with self._lock:
                        self.restarts += 1
                    restarts += 1
                continue
            except BaseException:
                self._checkin_worker(worker, discard=False)
                raise
            self._checkin_worker(worker, discard=False)
            with self._lock:
                self._crash_counts.pop(solve_key, None)
            return SolveOutcome(value=value, attempts=attempts, restarts=restarts)
        raise WorkerUnavailable(solve_key, attempts)

    def close(self) -> None:
        with self._workers_free:
            self._pool_closed = True
            idle, self._idle = self._idle, []
            self._workers_free.notify_all()
        for worker in idle:
            self._close_quietly(worker)
