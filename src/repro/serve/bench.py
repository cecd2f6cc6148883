"""Serve bench rows: the ``repro bench serve`` producer.

Drives a live :class:`~repro.serve.daemon.PlanService` over the check
corpus (:mod:`repro.check.corpus`) and returns rows in the
:mod:`repro.perf.bench` shape:

* ``throughput:<regime>`` — plans/sec through the daemon in four regimes:
  ``cold`` (every request solved), ``warm`` (memory-cache hits),
  ``restart-warm`` (fresh process-level cache, answers served from the
  durable sqlite store — the crash-recovery fast path) and ``coalesced``
  (8 tenants submitting identical bursts, amortized over shared solves).
  The ``plans_per_s`` rate is gated on every host.  ``cold`` and
  ``restart-warm`` also count the store's committed write transactions
  (``store_writes``, one per fresh plan; a store hit writes nothing, the
  ``no_store_writes`` check);
* ``plan:<cell>`` — each corpus cell's plan fingerprint, with the check
  that all four regimes returned it (``consistent``): caching, durability
  and coalescing must be invisible in results;
* ``scaling`` — plans/sec through pools of N=1/2/top process workers over
  a cold, non-coalescing workload (corpus cells × perturbed bandwidths),
  checked for fingerprint identity across worker counts and, on hosts
  with at least :data:`_SCALING_MIN_CPUS` CPUs, for a top-vs-1 speedup of
  at least :data:`SCALING_SPEEDUP_FLOOR`;
* ``recovery:<scenario>`` — the chaos scenarios of :mod:`repro.serve.chaos`
  (worker kill, poison quarantine, deadline straggler, store corruption,
  overload burst), each checked ``ok``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any

from repro.check.corpus import default_corpus
from repro.perf.bench import Stopwatch, row
from repro.perf.cache import cache_overridden, get_cache
from repro.serve.admission import AdmissionConfig
from repro.serve.chaos import run_chaos
from repro.serve.daemon import PlanService, ServiceConfig
from repro.serve.requests import PlanRequest

__all__ = ["bench_rows", "scaling_checks"]

#: Identical-request fan-out per corpus cell in the coalesced regime.
_COALESCE_FANOUT = 8

#: Timed repeats per regime; the best (minimum) wall is reported, which
#: filters scheduler noise out of the plans/sec gate.  Every repeat uses a
#: fresh store so ``cold`` stays genuinely cold.
_REPEATS = 5

#: Corpus passes inside one timed ``warm`` / ``restart-warm`` window.  A
#: single warm pass serves in a few milliseconds — far too small a
#: denominator for a 25% plans/sec gate — so the phases loop enough work
#: to measure honestly.  ``restart-warm`` clears the memory tier between
#: passes, so every pass re-reads the durable store like a fresh process.
_WARM_PASSES = 50
_RESTART_PASSES = 20

#: Coalesced bursts per timed window (each on a fresh service + store so
#: every burst's solves stay cold and shared).
_COALESCE_BURSTS = 3

#: Worker-scaling check: plans/sec at 4 workers must reach this multiple
#: of the 1-worker rate — checked only on hosts with at least
#: ``_SCALING_MIN_CPUS`` cores, because a 1-core container cannot
#: physically scale process workers (the rates are still recorded there).
SCALING_SPEEDUP_FLOOR = 1.8
_SCALING_MIN_CPUS = 4

#: Bandwidth perturbations generating the scaling workload: each corpus
#: cell is re-planned under these distinct bandwidths, so every request
#: in the timed window is an independent cold solve (nothing coalesces,
#: nothing cache-hits) — exactly the workload worker pools parallelize.
_SCALING_BANDWIDTH_FACTORS = (0.8, 0.9, 1.1, 1.2, 1.3)

#: Timed repeats per worker count (best wall reported, as above).
_SCALING_REPEATS = 2


def _corpus_requests() -> list[tuple[str, PlanRequest]]:
    return [
        (cell.name, PlanRequest(model=cell.model, topology=cell.topology,
                                config=cell.config))
        for cell in default_corpus()
    ]


def _no_sleep(_seconds: float) -> None:
    return None


def _throughput_rows(workdir: Path) -> list[dict[str, Any]]:
    """Time the four serving regimes; returns throughput then plan rows.

    The stopwatches bracket whole phases for reporting — they never steer
    what any phase does.
    """
    requests = _corpus_requests()
    fingerprints: dict[str, list[str]] = {name: [] for name, _ in requests}
    walls: dict[str, list[float]] = {}
    plan_counts: dict[str, int] = {}
    store_writes: dict[str, int] = {}

    def record(phase: str, plans: int, wall: float) -> None:
        walls.setdefault(phase, []).append(wall)
        plan_counts[phase] = plans

    for repeat in range(_REPEATS):
        store_path = str(workdir / f"serve-{repeat}.sqlite")
        with cache_overridden():
            with PlanService(
                ServiceConfig(store_path=store_path), sleeper=_no_sleep
            ) as service:
                watch = Stopwatch()
                for name, request in requests:
                    fingerprints[name].append(
                        service.plan(request).plan_fingerprint
                    )
                record("cold", len(requests), watch.seconds)
                store_writes["cold"] = service.store.writes

                watch = Stopwatch()
                for _pass in range(_WARM_PASSES):
                    for name, request in requests:
                        fingerprints[name].append(
                            service.plan(request).plan_fingerprint
                        )
                record("warm", len(requests) * _WARM_PASSES, watch.seconds)

        # Daemon "restart": only the sqlite store survives the cache swap.
        with cache_overridden():
            with PlanService(
                ServiceConfig(store_path=store_path), sleeper=_no_sleep
            ) as service:
                watch = Stopwatch()
                for _pass in range(_RESTART_PASSES):
                    get_cache().clear_memory()
                    for name, request in requests:
                        fingerprints[name].append(
                            service.plan(request).plan_fingerprint
                        )
                record(
                    "restart-warm", len(requests) * _RESTART_PASSES, watch.seconds
                )
                store_writes["restart-warm"] = service.store.writes

        # Coalesced: fresh store and cache per burst, every solve cold but
        # shared by _COALESCE_FANOUT tenants submitting identical requests.
        ticket_count = 0
        watch = Stopwatch()
        for burst in range(_COALESCE_BURSTS):
            with cache_overridden():
                with PlanService(
                    ServiceConfig(
                        store_path=str(
                            workdir / f"serve-coalesced-{repeat}-{burst}.sqlite"
                        ),
                        autostart=False,
                    ),
                    sleeper=_no_sleep,
                ) as service:
                    tickets = [
                        (name, service.submit(
                            PlanRequest(
                                model=request.model,
                                topology=request.topology,
                                config=request.config,
                                tenant=f"tenant-{i}",
                            )
                        ))
                        for name, request in requests
                        for i in range(_COALESCE_FANOUT)
                    ]
                    service.start()
                    for name, ticket in tickets:
                        fingerprints[name].append(
                            service.result(ticket).plan_fingerprint
                        )
                    ticket_count += len(tickets)
        record("coalesced", ticket_count, watch.seconds)

    rows = []
    for phase in ("cold", "warm", "restart-warm", "coalesced"):
        wall = min(walls[phase])
        plans = plan_counts[phase]
        counters = {"plans": plans}
        checks = {}
        if phase in store_writes:
            counters["store_writes"] = store_writes[phase]
        if phase == "restart-warm":
            checks["no_store_writes"] = store_writes[phase] == 0
        rows.append(
            row(
                f"throughput:{phase}",
                counters=counters,
                rates={"plans_per_s": round(plans / wall, 2)} if wall > 0 else {},
                walls={"seconds": round(wall, 4)},
                checks=checks,
            )
        )
    rows.extend(
        row(
            f"plan:{name}",
            fingerprint=seen[0],
            checks={"consistent": len(set(seen)) == 1},
        )
        for name, seen in fingerprints.items()
    )
    return rows


def _scaling_requests() -> list[tuple[str, PlanRequest]]:
    """The worker-scaling workload: corpus cells × perturbed bandwidths."""
    requests = []
    for cell in default_corpus():
        base_bandwidth = cell.config.bandwidth or cell.topology.pcie_bandwidth
        for factor in _SCALING_BANDWIDTH_FACTORS:
            requests.append(
                (
                    f"{cell.name}@bw{factor}",
                    PlanRequest(
                        model=cell.model,
                        topology=cell.topology,
                        config=dataclasses.replace(
                            cell.config, bandwidth=base_bandwidth * factor
                        ),
                    ),
                )
            )
    return requests


def _scaling_row(workdir: Path, worker_counts: tuple[int, ...]) -> dict[str, Any]:
    """Plans/sec through N process workers, as one ``scaling`` row.

    Each timed window submits every scaling request up front and then
    collects responses, so N dispatch threads genuinely overlap N child
    solver processes.  The pool is prewarmed *outside* the window with
    the plain corpus requests — those spawn the worker processes and pay
    the interpreter/numpy import cost, and their keys are disjoint from
    the perturbed workload, which therefore stays cold.  Fingerprints
    must be identical at every worker count: parallel dispatch is a
    latency feature, invisible in results.
    """
    requests = _scaling_requests()
    prewarm = _corpus_requests()
    fingerprints: dict[str, list[str]] = {name: [] for name, _ in requests}
    rates: dict[int, float] = {}
    for workers in worker_counts:
        walls = []
        for repeat in range(_SCALING_REPEATS):
            config = ServiceConfig(
                store_path=str(workdir / f"scale-{workers}-{repeat}.sqlite"),
                worker="process",
                workers=workers,
                admission=AdmissionConfig(
                    max_pending=4 * len(requests),
                    max_pending_per_tenant=4 * len(requests),
                ),
                autostart=False,
            )
            with cache_overridden():
                with PlanService(config, sleeper=_no_sleep) as service:
                    warm_tickets = [
                        service.submit(request) for _name, request in prewarm
                    ]
                    service.start()
                    for ticket in warm_tickets:
                        service.result(ticket, timeout=300.0)
                    watch = Stopwatch()
                    tickets = [
                        (name, service.submit(request))
                        for name, request in requests
                    ]
                    for name, ticket in tickets:
                        fingerprints[name].append(
                            service.result(ticket, timeout=300.0).plan_fingerprint
                        )
                    walls.append(watch.seconds)
        wall = min(walls)
        if wall > 0:
            rates[workers] = round(len(requests) / wall, 2)
    top = max(worker_counts)
    speedup = None
    if rates.get(1) and rates.get(top) and top > 1:
        speedup = round(rates[top] / rates[1], 2)
    return row(
        "scaling",
        counters={"plans": len(requests)},
        walls={
            **{f"plans_per_s@{workers}": rate for workers, rate in rates.items()},
            "speedup": speedup,
        },
        checks=scaling_checks(
            all(len(set(seen)) == 1 for seen in fingerprints.values()),
            speedup,
            top=top,
            cpus=os.cpu_count() or 1,
        ),
    )


def scaling_checks(
    consistent: bool, speedup: float | None, *, top: int, cpus: int
) -> dict[str, bool]:
    """The ``scaling`` row's checks.

    Fingerprint identity across worker counts is checked on every host;
    the speedup floor only when both the host and the ladder reach
    :data:`_SCALING_MIN_CPUS`.
    """
    checks = {"consistent": consistent}
    if cpus >= _SCALING_MIN_CPUS and top >= _SCALING_MIN_CPUS:
        checks["speedup_floor"] = (
            speedup is not None and speedup >= SCALING_SPEEDUP_FLOOR
        )
    return checks


def bench_rows(jobs: int | None = None) -> list[dict[str, Any]]:
    """The ``serve`` bench rows.

    Args:
        jobs: Top of the worker-scaling ladder (the bench always measures
            1 and 2 as well).  ``None`` consults ``REPRO_JOBS`` /
            :func:`repro.experiments.runner.resolve_jobs`, capped at 4, so
            an unconfigured run never oversubscribes its container.
    """
    from repro.experiments.runner import resolve_jobs

    top_workers = resolve_jobs(jobs, ceiling=4)
    worker_counts = tuple(sorted({1, 2, top_workers}))
    workdir = Path(tempfile.mkdtemp(prefix="repro-servebench-"))
    try:
        rows = _throughput_rows(workdir)
        rows.append(_scaling_row(workdir, worker_counts))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rows.extend(
        row(f"recovery:{result['name']}", checks={"ok": result["ok"]})
        for result in run_chaos()
    )
    return rows
