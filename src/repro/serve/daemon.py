"""The planning service: admission → coalesce → supervise → degrade.

:class:`PlanService` is the long-running daemon behind ``repro serve``
and the in-process client the tests and the chaos harness drive.  N
dispatch threads (``ServiceConfig.workers``) drain one FIFO of *jobs*,
each thread leasing one supervised worker, so independent solves run
concurrently; each job answers one or more coalesced tickets.  The
request path:

1. **admission** — :class:`~repro.serve.admission.AdmissionController`
   bounds pending work globally and per tenant; overflow is shed with a
   typed :class:`~repro.serve.requests.AdmissionRejected`, never an
   unbounded queue.
2. **coalescing** — requests are content-addressed by
   :meth:`~repro.serve.requests.PlanRequest.solve_key`; a request whose
   solve is already queued or executing joins it as an extra ticket and
   shares the single result (cross-tenant: identical work is identical
   work).
3. **supervision** — cache-missing solves run on the
   :class:`~repro.serve.supervisor.Supervisor`'s worker with crash
   restarts and poison quarantine.
4. **degradation** — a missed deadline (budget-bound solve,
   ``optimal=False``) or a dead worker never surfaces as an exception:
   the service answers with the best plan it can justify — last-known-
   good full-quality plan (``source="stale"``), budget-truncated
   incumbent, or max-stage heuristic — explicitly marked ``degraded``.

Determinism: every response's ``plan_fingerprint`` is a pure function of
the request sequence and the chaos script.  Deadlines are solver node
budgets (:class:`~repro.serve.requests.Deadline`), restart pacing is a
:class:`~repro.faults.recovery.RetryPolicy` schedule, and no wall-clock
reading steers control flow — ``repro.serve`` is a MOB004 determinism
root.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from pathlib import Path

from repro.core.api import plan_mobius
from repro.perf.cache import get_cache
from repro.perf.fingerprint import fingerprint
from repro.perf.store import DurableStore
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.requests import AdmissionRejected, PlanRequest, PlanResponse
from repro.serve.supervisor import (
    InlineWorker,
    ProcessWorker,
    RequestQuarantined,
    Supervisor,
    SupervisorConfig,
    WorkerSolveError,
    WorkerUnavailable,
)

__all__ = ["PlanService", "ServiceConfig", "Ticket"]

_STOP = object()


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """How the daemon runs.

    Attributes:
        store_path: Durable sqlite store location; ``None`` runs
            memory-only (no crash-safe persistence, workers start cold).
        worker: ``"inline"`` (solves on the dispatch thread; tests,
            single-process serving) or ``"process"`` (supervised child
            process; crash isolation).
        workers: Dispatch parallelism — N dispatch threads drain the
            queue concurrently, each leasing one of N supervised workers,
            so independent solves overlap.  Coalescing is unchanged: a
            key already in flight on *any* worker collects tickets
            instead of solving again, so responses are fingerprint-
            identical at every worker count.
        admission: Queue bounds.
        supervisor: Restart pacing and poison threshold.
        autostart: Start the dispatch thread in the constructor.  Chaos
            and admission tests set ``False`` to build a backlog first.
    """

    store_path: str | None = None
    worker: str = "inline"
    workers: int = 1
    admission: AdmissionConfig = AdmissionConfig()
    supervisor: SupervisorConfig = SupervisorConfig()
    autostart: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclasses.dataclass
class Ticket:
    """One submitted request's claim on a (possibly shared) solve."""

    request: PlanRequest
    solve_key: str
    coalesced: bool
    event: threading.Event = dataclasses.field(default_factory=threading.Event)
    response: PlanResponse | None = None


@dataclasses.dataclass
class _Job:
    """One queued solve answering every ticket coalesced onto it."""

    request: PlanRequest
    solve_key: str
    tickets: list


class PlanService:
    """In-process planning daemon (the engine behind ``repro serve``)."""

    def __init__(
        self, config: ServiceConfig | None = None, *, sleeper=time.sleep
    ) -> None:
        self.config = config or ServiceConfig()
        self.admission = AdmissionController(self.config.admission)
        if self.config.worker == "process":
            factory = lambda: ProcessWorker(self.config.store_path)  # noqa: E731
        elif self.config.worker == "inline":
            factory = InlineWorker
        else:
            raise ValueError(
                f"unknown worker kind {self.config.worker!r}; "
                "expected 'inline' or 'process'"
            )
        self.supervisor = Supervisor(
            factory,
            self.config.supervisor,
            sleeper=sleeper,
            pool_size=self.config.workers,
        )

        self.store: DurableStore | None = None
        if self.config.store_path is not None:
            self.store = DurableStore(Path(self.config.store_path))
            # The store becomes the global cache's durable tier, so a
            # restarted daemon resumes from every plan its predecessors
            # (and their workers) persisted.
            get_cache().use_store(self.store)

        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self._inflight: dict[str, _Job] = {}
        self._threads: list[threading.Thread] = []
        self._closed = False

        self.completed = 0
        self.coalesced_joins = 0
        self.deadline_misses = 0
        self.degraded_fallbacks = 0
        self.rejections: dict[str, int] = {}

        if self.config.autostart:
            self.start()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the dispatch threads (idempotent)."""
        if not self._threads:
            for index in range(self.config.workers):
                thread = threading.Thread(
                    target=self._dispatch_loop,
                    name=f"repro-serve-dispatch-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def submit(self, request: PlanRequest) -> Ticket:
        """Enqueue (or coalesce) a request; returns the claim ticket.

        Raises:
            AdmissionRejected: Shed at the front door (``queue-full`` /
                ``tenant-quota`` / ``quarantined`` / ``shutdown``).
        """
        solve_key = request.solve_key()
        with self._lock:
            if self._closed:
                self._reject_locked("shutdown", request.tenant, solve_key)
            if self.supervisor.is_quarantined(solve_key):
                self._reject_locked("quarantined", request.tenant, solve_key)
            job = self._inflight.get(solve_key)
            coalesced = job is not None
            self.admission.admit(request.tenant, solve_key, coalesced=coalesced)
            ticket = Ticket(request=request, solve_key=solve_key, coalesced=coalesced)
            if job is not None:
                job.tickets.append(ticket)
                self.coalesced_joins += 1
            else:
                job = _Job(request=request, solve_key=solve_key, tickets=[ticket])
                self._inflight[solve_key] = job
                self._queue.put(job)
        return ticket

    def result(self, ticket: Ticket, timeout: float | None = 60.0) -> PlanResponse:
        """Block until the ticket's solve answers.

        The timeout is a liveness bound for callers (tests would rather
        fail than hang); it never steers what the response contains.
        """
        if not ticket.event.wait(timeout):
            raise TimeoutError(
                f"no response for solve {ticket.solve_key[:12]} "
                f"within {timeout} seconds"
            )
        return ticket.response

    def plan(self, request: PlanRequest, timeout: float | None = 60.0) -> PlanResponse:
        """Synchronous submit-and-wait convenience."""
        return self.result(self.submit(request), timeout)

    def stats(self) -> dict:
        """JSON-ready service counters (reporting only)."""
        return {
            "workers": self.config.workers,
            "completed": self.completed,
            "coalesced_joins": self.coalesced_joins,
            "deadline_misses": self.deadline_misses,
            "degraded_fallbacks": self.degraded_fallbacks,
            "rejections": dict(sorted(self.rejections.items())),
            "admission": self.admission.snapshot(),
            "supervisor": {
                "crashes": self.supervisor.crashes,
                "restarts": self.supervisor.restarts,
            },
            "cache": get_cache().stats_snapshot(),
            "store": self.store.counts() if self.store is not None else {},
        }

    def close(self) -> None:
        """Drain queued jobs, stop the dispatch threads, detach the store."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in range(max(1, len(self._threads))):
            self._queue.put(_STOP)  # one stop pill per dispatch thread
        for thread in self._threads:
            thread.join(timeout=60.0)
        self._threads = []
        self.supervisor.close()
        if self.store is not None:
            get_cache().use_store(None)
            self.store.close()

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _reject_locked(self, reason: str, tenant: str, solve_key: str) -> None:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        raise AdmissionRejected(reason, tenant, solve_key)

    def _dispatch_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            try:
                response = self._answer(job)
            except Exception as err:  # the service must never die silently
                response = PlanResponse(
                    status="failed",
                    source="none",
                    report=None,
                    plan_fingerprint=None,
                    reason=f"internal error: {type(err).__name__}: {err}",
                )
            with self._lock:
                self._inflight.pop(job.solve_key, None)
                tickets = tuple(job.tickets)
                self.completed += 1
            fanout = len(tickets)
            for ticket in tickets:
                self.admission.release(
                    ticket.request.tenant, coalesced=ticket.coalesced
                )
                ticket.response = dataclasses.replace(
                    response, tenant=ticket.request.tenant, coalesced=fanout
                )
                ticket.event.set()

    # ------------------------------------------------------------------
    # The answer ladder
    # ------------------------------------------------------------------

    def _answer(self, job: _Job) -> PlanResponse:
        request = job.request
        report, found = get_cache().lookup("plan", request.memo_key())
        if found:
            return self._finish(request, report, source="cache")
        try:
            outcome = self.supervisor.solve(
                "plan",
                (request.model, request.topology, request.effective_config()),
                job.solve_key,
            )
        except RequestQuarantined as err:
            return PlanResponse(
                status="rejected",
                source="none",
                report=None,
                plan_fingerprint=None,
                reason=str(err),
            )
        except (WorkerUnavailable, WorkerSolveError) as err:
            return self._degrade(request, reason=str(err))
        # Process workers return reports the daemon-side memory tier has
        # never seen; publishing here makes the next identical request a
        # cache hit regardless of which process solved it.  The solving
        # process's plan_mobius already wrote the durable row, so this is
        # memory-only, as for the suite drain's cell workers.
        get_cache().adopt("plan", request.memo_key(), outcome.value)
        return self._finish(
            request,
            outcome.value,
            source="solver",
            attempts=outcome.attempts,
            restarts=outcome.restarts,
        )

    def _finish(
        self, request: PlanRequest, report, *, source: str,
        attempts: int = 0, restarts: int = 0,
    ) -> PlanResponse:
        optimal = report.partition_result.optimal
        if optimal and source == "solver" and request.settles_quality_key():
            # The budgeted solve completed: it is also the full-quality
            # plan, which later deadline misses are served from.
            get_cache().memoize("plan", request.quality_key(), lambda: report)
        if not optimal and request.deadline is not None:
            with self._lock:
                self.deadline_misses += 1
            lkg = self._lookup_lkg(request)
            if lkg is not None:
                return PlanResponse(
                    status="degraded",
                    source="stale",
                    report=lkg,
                    plan_fingerprint=fingerprint(lkg.plan),
                    optimal=True,
                    degraded=True,
                    stale=True,
                    attempts=attempts,
                    restarts=restarts,
                    reason="deadline-missed; serving last-known-good plan",
                )
            return PlanResponse(
                status="degraded",
                source=source,
                report=report,
                plan_fingerprint=fingerprint(report.plan),
                optimal=False,
                degraded=True,
                attempts=attempts,
                restarts=restarts,
                reason="deadline-missed; serving budget-truncated incumbent",
            )
        return PlanResponse(
            status="ok",
            source=source,
            report=report,
            plan_fingerprint=fingerprint(report.plan),
            optimal=optimal,
            attempts=attempts,
            restarts=restarts,
        )

    def _degrade(self, request: PlanRequest, *, reason: str) -> PlanResponse:
        """Dead-worker ladder: stale full-quality plan, else heuristic."""
        with self._lock:
            self.degraded_fallbacks += 1
        lkg = self._lookup_lkg(request)
        if lkg is not None:
            return PlanResponse(
                status="degraded",
                source="stale",
                report=lkg,
                plan_fingerprint=fingerprint(lkg.plan),
                optimal=True,
                degraded=True,
                stale=True,
                reason=f"{reason}; serving last-known-good plan",
            )
        try:
            fallback = dataclasses.replace(
                request.effective_config(),
                partition_method="max-stage",
                partition_max_nodes=None,
            )
            # Max-stage is a greedy O(layers) pass — safe to run on the
            # dispatch thread even when the solver workers are down.
            report = plan_mobius(request.model, request.topology, fallback)
        except Exception as err:
            return PlanResponse(
                status="failed",
                source="none",
                report=None,
                plan_fingerprint=None,
                reason=f"{reason}; heuristic fallback failed: {err}",
            )
        return PlanResponse(
            status="degraded",
            source="heuristic",
            report=report,
            plan_fingerprint=fingerprint(report.plan),
            optimal=False,
            degraded=True,
            reason=f"{reason}; serving max-stage heuristic plan",
        )

    # ------------------------------------------------------------------
    # Last-known-good plans
    # ------------------------------------------------------------------

    def _lookup_lkg(self, request: PlanRequest):
        """The full-quality plan of the request's problem, or ``None``: the
        ``plan`` row of its :meth:`~PlanRequest.quality_key`, if that
        plan's search completed (memory tier first, then the store)."""
        report, found = get_cache().lookup("plan", request.quality_key())
        if found and report.partition_result.optimal:
            return report
        return None
