"""PlanService end-to-end: coalescing, caching, the degrade ladder, shutdown."""

import importlib
import pickle
from pathlib import Path

import pytest

import repro.perf.store as store_module
from repro.core.api import MobiusConfig, plan_mobius
from repro.faults.recovery import RetryPolicy
from repro.models.spec import ModelSpec
from repro.perf.cache import cache_overridden, get_cache
from repro.serve.daemon import PlanService, ServiceConfig
from repro.serve.requests import AdmissionRejected, Deadline, PlanRequest
from repro.serve.supervisor import SupervisorConfig

CONFIG = MobiusConfig(partition_time_limit=1.0)


def _request(tiny_model, topo22, **kwargs) -> PlanRequest:
    return PlanRequest(model=tiny_model, topology=topo22, config=CONFIG, **kwargs)


def _service(**cfg) -> PlanService:
    return PlanService(ServiceConfig(**cfg), sleeper=lambda _s: None)


class TestHappyPath:
    def test_solver_then_cache(self, tiny_model, topo22):
        with cache_overridden(), _service() as service:
            first = service.plan(_request(tiny_model, topo22))
            second = service.plan(_request(tiny_model, topo22))
        assert first.ok and first.status == "ok" and first.source == "solver"
        assert second.ok and second.source == "cache"
        assert first.plan_fingerprint == second.plan_fingerprint
        assert service.completed == 2

    def test_stats_shape(self, tiny_model, topo22):
        with cache_overridden(), _service() as service:
            service.plan(_request(tiny_model, topo22))
            stats = service.stats()
        assert stats["completed"] == 1
        assert stats["supervisor"] == {"crashes": 0, "restarts": 0}
        assert stats["store"] == {}  # memory-only service

    def test_unknown_worker_kind_rejected(self):
        with pytest.raises(ValueError, match="worker kind"):
            PlanService(ServiceConfig(worker="accelerated"))


class TestCoalescing:
    def test_identical_requests_share_one_solve(self, tiny_model, topo22):
        with cache_overridden(), _service(autostart=False) as service:
            tickets = [
                service.submit(_request(tiny_model, topo22, tenant=f"t{i}"))
                for i in range(3)
            ]
            assert [t.coalesced for t in tickets] == [False, True, True]
            service.start()
            responses = [service.result(t) for t in tickets]
        assert service.completed == 1
        assert service.coalesced_joins == 2
        assert {r.plan_fingerprint for r in responses} == {
            responses[0].plan_fingerprint
        }
        assert all(r.coalesced == 3 for r in responses)
        # Each tenant gets its own response envelope back.
        assert [r.tenant for r in responses] == ["t0", "t1", "t2"]


class TestDeadlineLadder:
    def test_cold_miss_serves_truncated_incumbent(self, tiny_model, topo22):
        tight = _request(tiny_model, topo22, deadline=Deadline(max_nodes=1))
        with cache_overridden(), _service() as service:
            resp = service.plan(tight)
        assert resp.status == "degraded" and resp.ok
        assert resp.source == "solver"
        assert resp.degraded and not resp.stale and not resp.optimal
        assert "budget-truncated incumbent" in resp.reason
        assert service.deadline_misses == 1

    def test_warm_miss_serves_last_known_good(self, tiny_model, topo22):
        full = _request(tiny_model, topo22)
        tight = _request(tiny_model, topo22, deadline=Deadline(max_nodes=1))
        with cache_overridden(), _service() as service:
            baseline = service.plan(full)
            resp = service.plan(tight)
        assert baseline.status == "ok" and baseline.optimal
        assert resp.status == "degraded" and resp.source == "stale"
        assert resp.stale and resp.optimal  # full-quality plan, just stale
        assert resp.plan_fingerprint == baseline.plan_fingerprint


class TestDeadWorkerDegrade:
    def _crashing_service(self) -> PlanService:
        service = _service(
            supervisor=SupervisorConfig(
                restart_policy=RetryPolicy(max_attempts=1, base_delay=1e-3),
                quarantine_after=5,
            )
        )
        service.supervisor.sabotage_hook = lambda key, attempt: "crash"
        return service

    def test_heuristic_fallback_without_lkg(self, tiny_model, topo22):
        with cache_overridden(), self._crashing_service() as service:
            resp = service.plan(_request(tiny_model, topo22))
        assert resp.status == "degraded" and resp.ok
        assert resp.source == "heuristic"
        # Max-stage searches nothing: the answer is not the search's optimum.
        assert not resp.optimal and resp.report.partition_result.method == "max-stage"
        assert "max-stage heuristic" in resp.reason
        assert service.degraded_fallbacks == 1

    def test_stale_fallback_with_lkg(self, tiny_model, topo22):
        with cache_overridden(), self._crashing_service() as service:
            service.supervisor.sabotage_hook = None
            baseline = service.plan(_request(tiny_model, topo22))
            service.supervisor.sabotage_hook = lambda key, attempt: "crash"
            # A deadline changes the solve key, so this misses the cache
            # and hits the (now dead) worker — but the LKG registry has a
            # full-quality plan for the same (model, topology, config).
            resp = service.plan(
                _request(tiny_model, topo22, deadline=Deadline(max_nodes=64))
            )
        assert resp.status == "degraded" and resp.source == "stale"
        assert resp.plan_fingerprint == baseline.plan_fingerprint


class TestShutdownAndQuarantine:
    def test_submit_after_close_is_shed(self, tiny_model, topo22):
        with cache_overridden():
            service = _service()
            service.close()
            with pytest.raises(AdmissionRejected) as exc:
                service.submit(_request(tiny_model, topo22))
        assert exc.value.reason == "shutdown"
        assert service.rejections == {"shutdown": 1}

    def test_quarantined_key_shed_at_the_front_door(self, tiny_model, topo22):
        with cache_overridden(), _service(
            supervisor=SupervisorConfig(
                restart_policy=RetryPolicy(max_attempts=5, base_delay=1e-3),
                quarantine_after=2,
            )
        ) as service:
            service.supervisor.sabotage_hook = lambda key, attempt: "crash"
            first = service.plan(_request(tiny_model, topo22))
            assert first.status == "rejected" and not first.ok
            with pytest.raises(AdmissionRejected) as exc:
                service.submit(_request(tiny_model, topo22))
            assert exc.value.reason == "quarantined"


class TestDurability:
    def test_restarted_service_resumes_from_the_store(
        self, tiny_model, topo22, tmp_path
    ):
        store = str(tmp_path / "serve.sqlite")
        with cache_overridden():
            with _service(store_path=store) as service:
                cold = service.plan(_request(tiny_model, topo22))
        assert cold.source == "solver"
        # "Restart": a fresh cache (new process, in effect) + the same
        # store. The plan comes back from the durable tier, byte-identical.
        with cache_overridden():
            with _service(store_path=store) as service:
                warm = service.plan(_request(tiny_model, topo22))
        assert warm.ok and warm.source == "cache"
        assert warm.plan_fingerprint == cold.plan_fingerprint

    def test_lkg_survives_restart(self, tiny_model, topo22, tmp_path):
        store = str(tmp_path / "serve.sqlite")
        with cache_overridden():
            with _service(store_path=store) as service:
                baseline = service.plan(_request(tiny_model, topo22))
        with cache_overridden():
            with _service(store_path=store) as service:
                # Same-config tight request misses memory LKG but finds the
                # durable copy written before the "restart".
                tight = _request(tiny_model, topo22, deadline=Deadline(max_nodes=1))
                resp = service.plan(tight)
        assert resp.source == "stale"
        assert resp.plan_fingerprint == baseline.plan_fingerprint

    def test_restart_on_another_cache_version_starts_cold(
        self, tiny_model, topo22, tmp_path, monkeypatch
    ):
        """Rows other code wrote are never served: not the cached plan,
        not the last-known-good one."""
        store = str(tmp_path / "serve.sqlite")
        with cache_overridden():
            with _service(store_path=store) as service:
                service.plan(_request(tiny_model, topo22))
        monkeypatch.setattr(store_module, "_source_digest", "other-code")
        with cache_overridden():
            with _service(store_path=store) as service:
                assert service.stats()["store"] == {}
                tight = _request(tiny_model, topo22, deadline=Deadline(max_nodes=1))
                resp = service.plan(tight)
        # Without the old last-known-good plan, the tight request gets its
        # own budget-truncated incumbent instead of a stale answer.
        assert resp.source == "solver" and not resp.stale


class TestMemoCoupling:
    def test_service_plans_warm_direct_plan_mobius(self, tiny_model, topo22):
        request = _request(tiny_model, topo22)
        with cache_overridden(), _service() as service:
            served = service.plan(request)
            hits_before = get_cache().stats["plan"].memory_hits
            report = plan_mobius(tiny_model, topo22, request.effective_config())
            assert get_cache().stats["plan"].memory_hits == hits_before + 1
        assert served.plan_fingerprint is not None
        assert report is not None


def _wal_commits(path) -> int:
    """Committed transactions in a store's write-ahead log.

    A WAL frame whose header holds a nonzero database size ends a commit
    (the sqlite WAL format), so this counts every transaction since the
    log was last checkpointed, whichever process wrote it.
    """
    wal = Path(f"{path}-wal").read_bytes()
    if len(wal) < 32:
        return 0
    page_size = int.from_bytes(wal[8:12], "big")
    salt = wal[16:24]
    commits = 0
    for offset in range(32, len(wal) - 24 + 1, 24 + page_size):
        frame = wal[offset:offset + 24]
        if frame[8:16] != salt:
            break  # left over from before the log restarted
        commits += int.from_bytes(frame[4:8], "big") != 0
    return commits


class TestOneWrite:
    """A fresh plan is stored in one transaction; the LKG is its plan row."""

    @pytest.fixture
    def puts(self, monkeypatch):
        calls = []
        original_put = store_module.DurableStore.put

        def counting_put(self, rows):
            calls.append(sorted(namespace for namespace, _, _ in rows))
            original_put(self, rows)

        monkeypatch.setattr(store_module.DurableStore, "put", counting_put)
        return calls

    def test_fresh_inline_request_writes_each_row_once(
        self, tiny_model, topo22, tmp_path, puts
    ):
        store = str(tmp_path / "serve.sqlite")
        with cache_overridden(), _service(store_path=store) as service:
            before = _wal_commits(store)
            fresh = service.plan(_request(tiny_model, topo22))
            committed = _wal_commits(store) - before
            written = list(puts)
            again = service.plan(_request(tiny_model, topo22))
            assert service.stats()["store"] == {"partition": 1, "plan": 1}
            assert service.store.writes == 1
        assert written == [["partition", "plan"]] and committed == 1
        assert puts == written  # the cache hit writes nothing
        assert (fresh.source, again.source) == ("solver", "cache")
        assert again.plan_fingerprint == fresh.plan_fingerprint

    def test_fresh_process_worker_solve_commits_one_transaction(
        self, tiny_model, topo22, tmp_path
    ):
        store = str(tmp_path / "serve.sqlite")
        with cache_overridden(), _service(store_path=store, worker="process") as service:
            # Start the worker (it opens the store) before counting.
            service.plan(_request(tiny_model, topo22, deadline=Deadline(max_nodes=1)))
            before = _wal_commits(store)
            fresh = service.plan(_request(tiny_model, topo22))
            committed = _wal_commits(store) - before
            counts = service.stats()["store"]
        assert fresh.source == "solver" and committed == 1
        # Two solves, a row each in two namespaces; no separate LKG row.
        assert counts == {"partition": 2, "plan": 2}

    def test_process_worker_solve_is_published_to_memory(
        self, tiny_model, topo22, tmp_path
    ):
        store = str(tmp_path / "serve.sqlite")
        with cache_overridden(), _service(store_path=store, worker="process") as service:
            fresh = service.plan(_request(tiny_model, topo22))
            # The child solved it; the daemon adopted the report into its
            # memory tier, so a direct call here hits without the store.
            plan_mobius(tiny_model, topo22, CONFIG)
            stats = get_cache().stats["plan"]
            assert (stats.memory_hits, stats.store_hits, stats.misses) == (1, 0, 0)
            again = service.plan(_request(tiny_model, topo22))
        assert (fresh.source, again.source) == ("solver", "cache")
        assert again.plan_fingerprint == fresh.plan_fingerprint

    def test_truncated_plan_row_is_never_served_as_stale(self, tmp_path):
        """GPT-3B on 4+4 spends the default node budget: its plan row sits
        under the LKG key of every deadline on the same problem, but it is
        not a full-quality plan."""
        from repro.hardware.topology import topo_4_4
        from repro.models.zoo import gpt_3b

        model, topology = gpt_3b(), topo_4_4()
        full = PlanRequest(model=model, topology=topology)
        tight = PlanRequest(model=model, topology=topology, deadline=Deadline(max_nodes=1))
        store = str(tmp_path / "serve.sqlite")
        with cache_overridden(), _service(store_path=store) as service:
            unbudgeted = service.plan(full)
            miss = service.plan(tight)
        assert unbudgeted.status == "ok" and not unbudgeted.optimal
        assert full.quality_key() == full.memo_key()
        assert miss.status == "degraded" and not miss.stale
        assert "budget-truncated incumbent" in miss.reason

    def test_deadline_solve_that_completes_serves_later_misses(
        self, tiny_model, topo22, tmp_path
    ):
        roomy = _request(tiny_model, topo22, deadline=Deadline(max_nodes=10_000))
        store = str(tmp_path / "serve.sqlite")
        with cache_overridden(), _service(store_path=store) as service:
            solved = service.plan(roomy)
            before = service.plan(
                _request(tiny_model, topo22, deadline=Deadline(max_nodes=1))
            )
        with cache_overridden(), _service(store_path=store) as service:
            after = service.plan(
                _request(tiny_model, topo22, deadline=Deadline(max_nodes=2))
            )
            unbudgeted = service.plan(_request(tiny_model, topo22))
        assert solved.status == "ok" and solved.optimal
        for miss in (before, after):
            assert miss.status == "degraded" and miss.stale
            assert miss.plan_fingerprint == solved.plan_fingerprint
        # The budgeted solve's report is the unbudgeted key's value.
        assert unbudgeted.source == "cache"
        assert unbudgeted.plan_fingerprint == solved.plan_fingerprint


class TestHashEachInputOnce:
    """Every key embedding a request's ModelSpec reuses one field walk."""

    @pytest.fixture
    def model_walks(self, monkeypatch):
        module = importlib.import_module("repro.perf.fingerprint")
        walked = []
        original = module._walk_dataclass

        def spy(out, pending, value):
            if isinstance(value, ModelSpec):
                walked.append(value)
            return original(out, pending, value)

        monkeypatch.setattr(module, "_walk_dataclass", spy)
        return walked

    def test_fresh_then_hit_walk_each_model_once(self, tiny_model, topo22, model_walks):
        # A new equal instance per request, as a client process sends them.
        hot_model = pickle.loads(pickle.dumps(tiny_model))
        with cache_overridden(), _service() as service:
            fresh = service.plan(_request(tiny_model, topo22))
            assert model_walks == [tiny_model]
            hit = service.plan(_request(hot_model, topo22))
        assert (fresh.source, hit.source) == ("solver", "cache")
        assert len(model_walks) == 2 and model_walks[1] is hot_model
