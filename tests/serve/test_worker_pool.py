"""Multi-worker serving: pool leases, fingerprint identity, coalescing.

The dispatch loop may run N ways in parallel, but every externally
observable contract of the single-worker daemon — plan fingerprints,
solve-key coalescing, the crash ladder, quarantine — must be unchanged.
"""

import dataclasses
import itertools
import threading

import pytest

from repro.core.api import MobiusConfig
from repro.perf.cache import cache_overridden
from repro.serve.daemon import PlanService, ServiceConfig
from repro.serve.requests import PlanRequest
from repro.serve.supervisor import (
    InlineWorker,
    RequestQuarantined,
    Supervisor,
    WorkerUnavailable,
)

CONFIG = MobiusConfig(partition_time_limit=1.0)


def _request(tiny_model, topo22, **kwargs) -> PlanRequest:
    return PlanRequest(model=tiny_model, topology=topo22, config=CONFIG, **kwargs)


def _service(**cfg) -> PlanService:
    return PlanService(ServiceConfig(**cfg), sleeper=lambda _s: None)


def _distinct_requests(tiny_model, topo22, topo4) -> list[PlanRequest]:
    """Independent (non-coalescable) requests: distinct configs/topologies."""
    requests = [
        PlanRequest(
            model=tiny_model,
            topology=topo22,
            config=dataclasses.replace(CONFIG, n_microbatches=n),
            tenant=f"t{n}",
        )
        for n in (2, 4, 8)
    ]
    requests.append(
        PlanRequest(model=tiny_model, topology=topo4, config=CONFIG, tenant="t0")
    )
    return requests


class TestConfig:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ServiceConfig(workers=0)

    def test_zero_pool_size_rejected(self):
        with pytest.raises(ValueError, match="pool_size"):
            Supervisor(InlineWorker, sleeper=lambda _s: None, pool_size=0)

    def test_stats_reports_worker_count(self, tiny_model, topo22):
        with cache_overridden(), _service(workers=3) as service:
            service.plan(_request(tiny_model, topo22))
            assert service.stats()["workers"] == 3


class TestFingerprintIdentity:
    def _fingerprints(self, requests, workers):
        with cache_overridden(), _service(
            workers=workers, autostart=False
        ) as service:
            tickets = [service.submit(r) for r in requests]
            service.start()
            responses = [service.result(t, timeout=120.0) for t in tickets]
        assert all(r.ok for r in responses)
        assert service.completed == len(requests)
        return [r.plan_fingerprint for r in responses]

    def test_four_workers_match_one_worker_bit_for_bit(
        self, tiny_model, topo22, topo4
    ):
        requests = _distinct_requests(tiny_model, topo22, topo4)
        solo = self._fingerprints(requests, workers=1)
        pooled = self._fingerprints(requests, workers=4)
        assert pooled == solo
        assert len(set(solo)) == len(requests)  # genuinely distinct plans


class TestCoalescingAcrossPool:
    def test_identical_requests_still_share_one_solve(self, tiny_model, topo22):
        with cache_overridden(), _service(
            workers=4, autostart=False
        ) as service:
            tickets = [
                service.submit(_request(tiny_model, topo22, tenant=f"t{i}"))
                for i in range(3)
            ]
            assert [t.coalesced for t in tickets] == [False, True, True]
            service.start()
            responses = [service.result(t, timeout=120.0) for t in tickets]
        # Four dispatch threads, one in-flight solve: the key coalesces.
        assert service.completed == 1
        assert service.coalesced_joins == 2
        assert {r.plan_fingerprint for r in responses} == {
            responses[0].plan_fingerprint
        }


class TestSupervisorPool:
    def test_pool_of_two_leases_two_workers_concurrently(
        self, tiny_model, topo22
    ):
        release = threading.Event()
        started = [threading.Event(), threading.Event()]
        slots = itertools.count()

        class GateWorker:
            alive = True

            def solve(self, task, args, sabotage=None):
                started[next(slots)].set()
                assert release.wait(timeout=30.0)
                return "plan"

            def close(self):
                pass

        sup = Supervisor(GateWorker, sleeper=lambda _s: None, pool_size=2)
        threads = [
            threading.Thread(
                target=sup.solve,
                args=("plan", (tiny_model, topo22, CONFIG), f"k{i}"),
            )
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        try:
            # Both solves hold a lease at the same time: a pool, not a lock.
            assert started[0].wait(timeout=30.0)
            assert started[1].wait(timeout=30.0)
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=30.0)
            sup.close()

    def test_idle_workers_are_reused_across_solves(self, tiny_model, topo22):
        built = []

        def factory():
            built.append(object())
            return InlineWorker()

        sup = Supervisor(factory, sleeper=lambda _s: None, pool_size=2)
        other = dataclasses.replace(CONFIG, n_microbatches=8)
        with cache_overridden():
            sup.solve("plan", (tiny_model, topo22, CONFIG), "k1")
            sup.solve("plan", (tiny_model, topo22, other), "k2")
        sup.close()
        # Sequential solves share one pooled worker; pool_size is a cap,
        # not a preallocation.
        assert len(built) == 1

    def test_crashed_worker_is_discarded_not_reused(self, tiny_model, topo22):
        built = []

        def factory():
            built.append(object())
            return InlineWorker()

        sup = Supervisor(factory, sleeper=lambda _s: None, pool_size=2)
        sup.sabotage_hook = (
            lambda key, attempt: "crash" if attempt == 1 else None
        )
        with cache_overridden():
            outcome = sup.solve("plan", (tiny_model, topo22, CONFIG), "k1")
        sup.close()
        assert outcome.attempts == 2
        assert sup.crashes == 1
        assert len(built) == 2  # the crashed worker was replaced

    def test_quarantine_ladder_survives_pooling(self, tiny_model, topo22):
        from repro.serve.supervisor import SupervisorConfig

        sup = Supervisor(
            InlineWorker,
            SupervisorConfig(quarantine_after=2),
            sleeper=lambda _s: None,
            pool_size=4,
        )
        sup.sabotage_hook = lambda key, attempt: "crash"
        with pytest.raises((RequestQuarantined, WorkerUnavailable)):
            sup.solve("plan", (tiny_model, topo22, CONFIG), "poison")
        while not sup.is_quarantined("poison"):
            with pytest.raises((RequestQuarantined, WorkerUnavailable)):
                sup.solve("plan", (tiny_model, topo22, CONFIG), "poison")
        with pytest.raises(RequestQuarantined):
            sup.solve("plan", (tiny_model, topo22, CONFIG), "poison")
        sup.close()

    def test_closed_pool_refuses_new_solves(self, tiny_model, topo22):
        sup = Supervisor(InlineWorker, sleeper=lambda _s: None, pool_size=2)
        sup.close()
        with pytest.raises(WorkerUnavailable):
            sup.solve("plan", (tiny_model, topo22, CONFIG), "k1")
