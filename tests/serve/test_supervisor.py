"""Supervisor crash ladder: restart pacing, quarantine, solve-error passthrough."""

import pytest

from repro.core.api import MobiusConfig
from repro.faults.recovery import RetryPolicy
from repro.perf.cache import cache_overridden
from repro.perf.fingerprint import fingerprint
from repro.serve.supervisor import (
    InlineWorker,
    ProcessWorker,
    RequestQuarantined,
    Supervisor,
    SupervisorConfig,
    WorkerSolveError,
    WorkerUnavailable,
)

CONFIG = MobiusConfig(partition_time_limit=1.0)


def _supervisor(sleeps=None, **cfg) -> Supervisor:
    cfg.setdefault(
        "restart_policy", RetryPolicy(max_attempts=3, base_delay=1e-3, max_delay=0.25)
    )
    sleeper = sleeps.append if sleeps is not None else (lambda _s: None)
    return Supervisor(InlineWorker, SupervisorConfig(**cfg), sleeper=sleeper)


class TestConfig:
    def test_quarantine_after_validated(self):
        with pytest.raises(ValueError, match="quarantine_after"):
            SupervisorConfig(quarantine_after=0)


class TestRecovery:
    def test_crash_then_recover(self, tiny_model, topo22):
        sleeps = []
        sup = _supervisor(sleeps)
        sup.sabotage_hook = lambda key, attempt: "crash" if attempt == 1 else None
        with cache_overridden():
            outcome = sup.solve("plan", (tiny_model, topo22, CONFIG), "key-1")
        assert outcome.attempts == 2
        assert outcome.restarts == 1
        assert sup.crashes == 1
        # The restart was paced by the policy's deterministic schedule.
        assert sleeps == [sup.config.restart_policy.backoff(1)]
        # Success clears the crash count: the key is not on a poison path.
        assert sup._crash_counts == {}

    def test_restart_budget_exhaustion(self, tiny_model, topo22):
        sleeps = []
        sup = _supervisor(
            sleeps,
            restart_policy=RetryPolicy(max_attempts=2, base_delay=1e-3),
            quarantine_after=10,
        )
        sup.sabotage_hook = lambda key, attempt: "crash"
        with pytest.raises(WorkerUnavailable) as exc:
            sup.solve("plan", (tiny_model, topo22, CONFIG), "key-1")
        assert exc.value.attempts == 2
        # The last failed attempt is never followed by a wait.
        assert sleeps == [sup.config.restart_policy.backoff(1)]


class TestQuarantine:
    def test_poison_key_quarantined_then_refused(self, tiny_model, topo22):
        sup = _supervisor(quarantine_after=2, restart_policy=RetryPolicy(max_attempts=5))
        sup.sabotage_hook = lambda key, attempt: "crash"
        with pytest.raises(RequestQuarantined) as exc:
            sup.solve("plan", (tiny_model, topo22, CONFIG), "poison")
        assert exc.value.crashes == 2
        assert sup.is_quarantined("poison")
        # Re-submission is refused immediately: no worker is risked.
        crashes_before = sup.crashes
        with pytest.raises(RequestQuarantined):
            sup.solve("plan", (tiny_model, topo22, CONFIG), "poison")
        assert sup.crashes == crashes_before

    def test_crash_counts_accumulate_across_requests(self, tiny_model, topo22):
        # One crash per request, quarantine_after=2, single-attempt budget:
        # the first request fails as unavailable, the second tips the key
        # into quarantine — poison detection spans requests.
        sup = _supervisor(
            quarantine_after=2, restart_policy=RetryPolicy(max_attempts=1)
        )
        sup.sabotage_hook = lambda key, attempt: "crash"
        with pytest.raises(WorkerUnavailable):
            sup.solve("plan", (tiny_model, topo22, CONFIG), "poison")
        with pytest.raises(RequestQuarantined):
            sup.solve("plan", (tiny_model, topo22, CONFIG), "poison")

    def test_other_keys_unaffected(self, tiny_model, topo22):
        sup = _supervisor(quarantine_after=1)
        sup.sabotage_hook = (
            lambda key, attempt: "crash" if key == "poison" else None
        )
        with pytest.raises(RequestQuarantined):
            sup.solve("plan", (tiny_model, topo22, CONFIG), "poison")
        with cache_overridden():
            outcome = sup.solve("plan", (tiny_model, topo22, CONFIG), "healthy")
        assert outcome.value is not None


class TestWorkerLeases:
    def test_factory_failure_returns_the_lease(self):
        calls = {"n": 0}

        def flaky_factory():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise OSError("spawn failed under fd pressure")
            return InlineWorker()

        sup = Supervisor(
            flaky_factory, SupervisorConfig(), sleeper=lambda _s: None, pool_size=1
        )
        for _ in range(2):
            with pytest.raises(OSError):
                sup._checkout_worker()
            # The failed checkout handed its lease back; a leak here would
            # leave pool_size=1 permanently consumed and the next checkout
            # blocking in wait() forever.
            assert sup._leased == 0
        worker = sup._checkout_worker()
        assert isinstance(worker, InlineWorker)
        assert sup._leased == 1
        sup._checkin_worker(worker, discard=False)
        assert sup._leased == 0


class TestSolveErrors:
    def test_solver_exceptions_are_not_retried(self, tiny_model, topo22):
        class FailingWorker:
            alive = True
            calls = 0

            def solve(self, task, args, sabotage=None):
                FailingWorker.calls += 1
                raise WorkerSolveError("deterministic solver bug")

            def close(self):
                pass

        sup = Supervisor(FailingWorker, sleeper=lambda _s: None)
        with pytest.raises(WorkerSolveError):
            sup.solve("plan", (tiny_model, topo22, CONFIG), "key-1")
        # Planning is deterministic: a retry would fail identically.
        assert FailingWorker.calls == 1


class TestProcessWorker:
    """Real child-process tests, bounded to a handful of spawns."""

    def test_crash_detection_and_restart(self, tiny_model, topo22, tmp_path):
        sup = Supervisor(
            lambda: ProcessWorker(tmp_path / "serve.sqlite"),
            sleeper=lambda _s: None,
        )
        sup.sabotage_hook = lambda key, attempt: "crash" if attempt == 1 else None
        try:
            with cache_overridden():
                outcome = sup.solve("plan", (tiny_model, topo22, CONFIG), "key-1")
        finally:
            sup.close()
        assert outcome.attempts == 2
        assert outcome.restarts == 1
        assert sup.crashes == 1
        assert fingerprint(outcome.value.plan)

    def test_kill_seam_then_fresh_solve(self, tiny_model, topo22):
        worker = ProcessWorker()
        try:
            with cache_overridden():
                first = worker.solve("plan", (tiny_model, topo22, CONFIG))
            worker.kill()
            assert not worker.alive
            with cache_overridden():
                second = worker.solve("plan", (tiny_model, topo22, CONFIG))  # restarts
        finally:
            worker.close()
        assert fingerprint(first.plan) == fingerprint(second.plan)
