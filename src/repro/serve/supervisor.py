"""Supervised solver workers: crash detection, restart pacing, quarantine.

The daemon never calls ``plan_mobius`` on its own thread for real work —
a solver bug (or a chaos-injected kill) must never take the service down.
Solves run on a *worker*, and the :class:`Supervisor` wraps every solve
in the crash ladder:

1. a worker crash (process death mid-solve, detected as EOF on its pipe)
   discards the worker and restarts a fresh one, paced by the
   exponential-backoff schedule of a :class:`repro.faults.recovery.
   RetryPolicy` — the same deterministic delay sequence the simulator's
   transfer retries use;
2. a request whose solve has crashed workers ``quarantine_after`` times
   is declared poison: the in-flight solve raises
   :class:`RequestQuarantined` and later submissions are rejected at
   admission, so one bad request cannot crash-loop the service;
3. a worker that *returns* an error (solver exception, not a death) is
   not retried — planning is deterministic, so the same request would
   fail identically on a fresh worker.

Two worker implementations share one duck-type
(``solve(model, topology, config, sabotage=None)`` + ``close()``):
:class:`InlineWorker` solves on the calling thread (tests, ``repro
serve`` without process isolation) and :class:`ProcessWorker` runs
:func:`_process_worker_main` in a child process over a pipe.  Workers
hand the daemon's :class:`~repro.perf.store.DurableStore` to their
result cache before solving, so a freshly restarted worker inherits the
cached results of every worker that died before it.

``sabotage`` is the chaos seam: the harness installs a deterministic
``Supervisor.sabotage_hook`` deciding per (solve_key, attempt) whether a
worker dies mid-solve.  Production paths never set it.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import time

from repro.core.api import MobiusConfig, MobiusPlanReport, plan_mobius
from repro.faults.recovery import RetryPolicy
from repro.hardware.topology import Topology
from repro.models.spec import ModelSpec
from repro.perf.cache import get_cache
from repro.perf.store import DurableStore
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


class WorkerCrashed(ServeError):
    """The worker died mid-solve (pipe EOF / simulated kill)."""


class WorkerSolveError(ServeError):
    """The worker survived but the solve itself raised."""


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
            solve attempts per request, the backoff sequence paces the
            restarts between them.
        quarantine_after: Worker crashes (cumulative per solve key, across
            requests) before the key is declared poison.
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
    """A successful supervised solve, with the recovery effort it took."""

    report: MobiusPlanReport
    attempts: int
    restarts: int


class InlineWorker:
    """Solves on the calling thread; crashes are simulated via sabotage."""

    def __init__(self) -> None:
        self.alive = True

    def solve(
        self,
        model: ModelSpec,
        topology: Topology,
        config: MobiusConfig,
        sabotage: str | None = None,
    ) -> MobiusPlanReport:
        if sabotage == "crash":
            self.alive = False
            raise WorkerCrashed("inline worker sabotaged mid-solve")
        try:
            return plan_mobius(model, topology, config)
        except Exception as err:
            raise WorkerSolveError(f"{type(err).__name__}: {err}") from err

    def close(self) -> None:
        self.alive = False


def _process_worker_main(conn, store_path: str | None) -> None:
    """Child-process loop: open the durable store, then solve until EOF.

    Runs in a fresh interpreter (spawn start method): opening the store
    here is what gives a brand-new worker the previous generation's
    cached plans.
    """
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
            _, model, topology, config, sabotage = message
            if sabotage == "crash":
                os._exit(17)  # die without flushing: a real mid-solve crash
            try:
                report = plan_mobius(model, topology, config)
            except Exception as err:
                conn.send(("error", f"{type(err).__name__}: {err}"))
            else:
                conn.send(("ok", report))
    finally:
        if store is not None:
            store.close()


class ProcessWorker:
    """One solver child process over a pipe; started lazily, restartable.

    Children are always spawned: forking a threaded daemon could inherit
    locks mid-acquisition.
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
            args=(child_conn, self.store_path),
            name="repro-serve-worker",
            daemon=True,
        )
        self._process.start()
        child_conn.close()  # parent keeps one end only: EOF means death

    def solve(
        self,
        model: ModelSpec,
        topology: Topology,
        config: MobiusConfig,
        sabotage: str | None = None,
    ) -> MobiusPlanReport:
        self._ensure_started()
        try:
            self._conn.send(("solve", model, topology, config, sabotage))
            kind, payload = self._conn.recv()
        except (EOFError, BrokenPipeError, OSError) as err:
            self.close()
            raise WorkerCrashed(f"worker died mid-solve: {err!r}") from err
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
    """Runs solves on a pool of workers, restarting and quarantining.

    The pool owns up to ``pool_size`` worker leases: a solve checks a
    worker out (blocking while all leases are taken, which only happens
    when more threads than ``pool_size`` call in), solves, and checks it
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

    def solve(
        self,
        model: ModelSpec,
        topology: Topology,
        config: MobiusConfig,
        solve_key: str,
    ) -> SolveOutcome:
        """Solve under supervision.

        Raises:
            RequestQuarantined: The key is (or just became) poison.
            WorkerUnavailable: The restart budget ran out before a result.
            WorkerSolveError: The solve itself failed (not retried —
                planning is deterministic).
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
                report = worker.solve(model, topology, config, sabotage=sabotage)
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
            return SolveOutcome(report=report, attempts=attempts, restarts=restarts)
        raise WorkerUnavailable(solve_key, attempts)

    def close(self) -> None:
        with self._workers_free:
            self._pool_closed = True
            idle, self._idle = self._idle, []
            self._workers_free.notify_all()
        for worker in idle:
            self._close_quietly(worker)
