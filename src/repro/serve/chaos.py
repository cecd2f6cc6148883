"""Chaos harness against the planning daemon.

Every scenario scripts a failure a real deployment would see — a worker
killed mid-solve, a request that kills every worker it touches, a solve
that cannot finish inside its deadline, a store file flipped to garbage,
a queue overload burst — drives a live :class:`~repro.serve.daemon.
PlanService` through it, and asserts the service's contract:

* it never hangs and never raises past the typed surface
  (:class:`~repro.serve.requests.AdmissionRejected` at the front door is
  the only exception clients see);
* every answered plan is either healthy or *explicitly* marked degraded;
* recovery is invisible in results — a plan computed through crashes and
  restarts is byte-identical (same ``plan_fingerprint``) to one computed
  on a healthy service.

Chaos injection is deterministic: crashes are scripted per
``(solve_key, attempt)`` through ``Supervisor.sabotage_hook``, deadlines
are node budgets, and store corruption is literal byte surgery on the
sqlite file.  No randomness, no wall-clock control flow — the scenario
results (and their fingerprints) are stable across machines, which is
what lets ``repro bench serve`` gate them in CI.

Scenarios run each service phase under a fresh
:func:`~repro.perf.cache.cache_overridden` cache so that "restart the
daemon" genuinely means "only the durable store survives" even though
the harness stays in one process.
"""

from __future__ import annotations

import shutil
import sqlite3
import tempfile
from pathlib import Path

from repro.check.corpus import default_corpus
from repro.perf.cache import cache_overridden
from repro.serve.admission import AdmissionConfig
from repro.serve.daemon import PlanService, ServiceConfig
from repro.serve.requests import AdmissionRejected, Deadline, PlanRequest

__all__ = ["run_chaos", "SCENARIOS"]

#: No real waiting inside chaos runs: restart pacing is already covered
#: by the RetryPolicy unit tests, so scenarios collect the delays instead.
def _no_sleep(_seconds: float) -> None:
    return None


def _cell(index: int = 0):
    return default_corpus()[index]


def _request(cell, **kwargs) -> PlanRequest:
    return PlanRequest(
        model=cell.model, topology=cell.topology, config=cell.config, **kwargs
    )


def _service(workdir: Path, **config_kwargs) -> PlanService:
    config_kwargs.setdefault("store_path", str(workdir / "serve.sqlite"))
    return PlanService(ServiceConfig(**config_kwargs), sleeper=_no_sleep)


def scenario_worker_crash_midsolve(workdir: Path) -> dict:
    """A worker dies mid-solve; the restarted worker's plan is identical."""
    cell = _cell(0)
    request = _request(cell)
    with cache_overridden():
        with _service(workdir / "crashed") as service:
            key = request.solve_key()
            service.supervisor.sabotage_hook = (
                lambda solve_key, attempt: "crash"
                if solve_key == key and attempt == 1
                else None
            )
            crashed = service.plan(request)
    with cache_overridden():
        with _service(workdir / "healthy") as service:
            healthy = service.plan(request)
    identical = crashed.plan_fingerprint == healthy.plan_fingerprint
    return {
        "name": "worker-crash-midsolve",
        "ok": (
            crashed.status == "ok"
            and crashed.attempts == 2
            and crashed.restarts == 1
            and identical
        ),
        "status": crashed.status,
        "attempts": crashed.attempts,
        "restarts": crashed.restarts,
        "fingerprint_identical": identical,
        "fingerprint": crashed.plan_fingerprint,
    }


def scenario_poison_quarantine(workdir: Path) -> dict:
    """A request that kills every worker is quarantined, not crash-looped."""
    poison_cell, healthy_cell = _cell(0), _cell(1)
    poison = _request(poison_cell)
    with cache_overridden():
        with _service(workdir) as service:
            key = poison.solve_key()
            service.supervisor.sabotage_hook = (
                lambda solve_key, attempt: "crash" if solve_key == key else None
            )
            first = service.plan(poison)
            try:
                service.submit(poison)
                resubmit_reason = None
            except AdmissionRejected as err:
                resubmit_reason = err.reason
            after = service.plan(_request(healthy_cell))
    return {
        "name": "poison-quarantine",
        "ok": (
            first.status == "rejected"
            and resubmit_reason == "quarantined"
            and after.status == "ok"
        ),
        "first_status": first.status,
        "resubmit_reason": resubmit_reason,
        "service_alive_after": after.status == "ok",
    }


def scenario_deadline_straggler(workdir: Path) -> dict:
    """A budget-bound solve degrades; with history it serves the LKG plan."""
    cell = _cell(0)
    tight = _request(cell, deadline=Deadline(max_nodes=1))
    full = _request(cell)
    with cache_overridden():
        with _service(workdir) as service:
            cold_miss = service.plan(tight)       # no history: incumbent
            healthy = service.plan(full)          # full-quality solve
            warm_miss = service.plan(tight)       # history: stale LKG
    return {
        "name": "deadline-straggler",
        "ok": (
            cold_miss.status == "degraded"
            and not cold_miss.optimal
            and not cold_miss.stale
            and healthy.status == "ok"
            and healthy.optimal
            and warm_miss.status == "degraded"
            and warm_miss.stale
            and warm_miss.plan_fingerprint == healthy.plan_fingerprint
        ),
        "cold_miss": {
            "status": cold_miss.status,
            "optimal": cold_miss.optimal,
            "source": cold_miss.source,
        },
        "warm_miss": {
            "status": warm_miss.status,
            "stale": warm_miss.stale,
            "source": warm_miss.source,
            "serves_lkg": warm_miss.plan_fingerprint == healthy.plan_fingerprint,
        },
    }


def scenario_corrupt_store_entry(workdir: Path) -> dict:
    """Flipped payload bytes quarantine the entry; the plan is recomputed."""
    cell = _cell(0)
    request = _request(cell)
    store_path = workdir / "serve.sqlite"
    with cache_overridden():
        with _service(workdir) as service:
            before = service.plan(request)
    conn = sqlite3.connect(str(store_path))
    try:
        with conn:
            flipped = conn.execute(
                "UPDATE entries SET payload = X'DEADBEEF'"
            ).rowcount
    finally:
        conn.close()
    # "Restart": fresh process-level cache, same (now corrupted) store.
    with cache_overridden():
        with _service(workdir) as service:
            after = service.plan(request)
            quarantined = service.store.quarantined_entries
    return {
        "name": "corrupt-store-entry",
        "ok": (
            before.status == "ok"
            and after.status == "ok"
            and after.plan_fingerprint == before.plan_fingerprint
            and quarantined > 0
        ),
        "entries_flipped": flipped,
        "entries_quarantined": quarantined,
        "fingerprint_identical": after.plan_fingerprint == before.plan_fingerprint,
    }


def scenario_corrupt_store_file(workdir: Path) -> dict:
    """A store file sqlite rejects is set aside; the daemon restarts cold."""
    cell = _cell(0)
    request = _request(cell)
    store_path = workdir / "serve.sqlite"
    with cache_overridden():
        with _service(workdir) as service:
            before = service.plan(request)
    store_path.write_bytes(b"this is not a sqlite database at all")
    with cache_overridden():
        with _service(workdir) as service:
            after = service.plan(request)
            recovered = service.store.recovered_files
    preserved = sorted(p.name for p in workdir.glob("serve.sqlite.corrupt.*"))
    return {
        "name": "corrupt-store-file",
        "ok": (
            after.status == "ok"
            and after.plan_fingerprint == before.plan_fingerprint
            and recovered == 1
            and len(preserved) == 1
        ),
        "files_recovered": recovered,
        "preserved_corrupt_files": preserved,
        "fingerprint_identical": after.plan_fingerprint == before.plan_fingerprint,
    }


def scenario_overload_burst(workdir: Path) -> dict:
    """A burst past the queue bounds sheds typed rejections, then drains."""
    cell = _cell(0)
    admission = AdmissionConfig(max_pending=4, max_pending_per_tenant=2)
    rejections: list[tuple[str, str]] = []
    tickets = []
    with cache_overridden():
        with _service(workdir, admission=admission, autostart=False) as service:
            # Distinct node budgets make distinct solves (no coalescing),
            # each cheap: this is queue pressure, not solver pressure.
            burst = [
                _request(
                    cell,
                    tenant=f"tenant-{i % 3}",
                    deadline=Deadline(max_nodes=i + 1),
                )
                for i in range(9)
            ]
            for request in burst:
                try:
                    tickets.append(service.submit(request))
                except AdmissionRejected as err:
                    rejections.append((err.reason, err.tenant))
            service.start()
            responses = [service.result(t) for t in tickets]
    reasons = sorted({reason for reason, _tenant in rejections})
    return {
        "name": "overload-burst",
        "ok": (
            len(tickets) + len(rejections) == 9
            and "queue-full" in reasons
            and "tenant-quota" in reasons
            and all(r.ok for r in responses)
        ),
        "admitted": len(tickets),
        "rejected": len(rejections),
        "rejection_reasons": reasons,
        "all_admitted_answered": all(r.ok for r in responses),
    }


def scenario_coalesced_burst(workdir: Path) -> dict:
    """Identical requests from many tenants share exactly one solve."""
    cell = _cell(0)
    with cache_overridden():
        with _service(workdir, autostart=False) as service:
            tickets = [
                service.submit(_request(cell, tenant=f"tenant-{i}"))
                for i in range(5)
            ]
            service.start()
            responses = [service.result(t) for t in tickets]
    fingerprints = {r.plan_fingerprint for r in responses}
    return {
        "name": "coalesced-burst",
        "ok": (
            service.completed == 1
            and all(r.status == "ok" and r.coalesced == 5 for r in responses)
            and len(fingerprints) == 1
        ),
        "solves_executed": service.completed,
        "tickets_answered": len(responses),
        "distinct_fingerprints": len(fingerprints),
    }


SCENARIOS = (
    scenario_worker_crash_midsolve,
    scenario_poison_quarantine,
    scenario_deadline_straggler,
    scenario_corrupt_store_entry,
    scenario_corrupt_store_file,
    scenario_overload_burst,
    scenario_coalesced_burst,
)


def run_chaos(workdir: str | Path | None = None) -> list[dict]:
    """Run every scenario; returns their JSON-ready result rows."""
    base = Path(workdir) if workdir is not None else Path(tempfile.mkdtemp(
        prefix="repro-serve-chaos-"
    ))
    cleanup = workdir is None
    try:
        results = []
        for scenario in SCENARIOS:
            scenario_dir = base / scenario.__name__
            scenario_dir.mkdir(parents=True, exist_ok=True)
            results.append(scenario(scenario_dir))
        return results
    finally:
        if cleanup:
            shutil.rmtree(base, ignore_errors=True)
