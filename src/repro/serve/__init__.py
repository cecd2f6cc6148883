"""Planner-as-a-service: the crash-safe ``repro serve`` daemon.

Admission control, request coalescing, deterministic deadlines,
supervised solver workers and a durable result store — see
DESIGN.md §14 for the architecture and §7 for the store.
"""

from repro.perf.store import DurableStore
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.daemon import PlanService, ServiceConfig, Ticket
from repro.serve.requests import (
    AdmissionRejected,
    Deadline,
    PlanRequest,
    PlanResponse,
    ServeError,
)
from repro.serve.supervisor import (
    InlineWorker,
    ProcessWorker,
    RequestQuarantined,
    SolveOutcome,
    Supervisor,
    SupervisorConfig,
    WorkerCrashed,
    WorkerSolveError,
    WorkerUnavailable,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionRejected",
    "Deadline",
    "DurableStore",
    "InlineWorker",
    "PlanRequest",
    "PlanResponse",
    "PlanService",
    "ProcessWorker",
    "RequestQuarantined",
    "ServeError",
    "ServiceConfig",
    "SolveOutcome",
    "Supervisor",
    "SupervisorConfig",
    "Ticket",
    "WorkerCrashed",
    "WorkerSolveError",
    "WorkerUnavailable",
]
