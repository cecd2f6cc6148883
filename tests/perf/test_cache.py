"""Cache correctness: tiering, persistence, versioning, and result equality."""

import sqlite3
import threading

import pytest

import repro.perf.store as store_module
from repro.core.api import MobiusConfig, plan_mobius
from repro.experiments.runner import run_system
from repro.hardware.topology import topo_2_2
from repro.perf.cache import (
    STORE_FILENAME,
    CacheConfig,
    ResultCache,
    cache_overridden,
    configure_cache,
    get_cache,
)
from repro.perf.store import DurableStore


@pytest.fixture
def disk_cache(tmp_path):
    with cache_overridden(memory=True, disk=True, directory=str(tmp_path)) as cache:
        yield cache


def _rewrite_payloads(directory, transform) -> int:
    """Apply ``transform`` to every stored payload (torn pages, bit rot)."""
    conn = sqlite3.connect(str(directory / STORE_FILENAME))
    try:
        with conn:
            rows = conn.execute("SELECT namespace, digest, payload FROM entries").fetchall()
            for namespace, digest, payload in rows:
                conn.execute(
                    "UPDATE entries SET payload = ? WHERE namespace = ? AND digest = ?",
                    (transform(payload), namespace, digest),
                )
        return len(rows)
    finally:
        conn.close()


class TestResultCache:
    def test_memory_hit_skips_compute(self, disk_cache):
        calls = []
        first = disk_cache.memoize("ns", ("key",), lambda: calls.append(1) or "value")
        second = disk_cache.memoize("ns", ("key",), lambda: calls.append(1) or "other")
        assert first == second == "value"
        assert len(calls) == 1
        assert disk_cache.stats["ns"].memory_hits == 1

    def test_disk_survives_a_new_process_worth_of_state(self, tmp_path):
        """A fresh cache over the same directory (= another process) hits."""
        config = CacheConfig(memory=True, disk=True, directory=str(tmp_path))
        writer = ResultCache(config)
        writer.memoize("ns", ("key",), lambda: {"answer": 42})
        writer.close()
        reader = ResultCache(config)
        value = reader.memoize("ns", ("key",), lambda: pytest.fail("should hit the store"))
        reader.close()
        assert value == {"answer": 42}
        assert reader.stats["ns"].store_hits == 1
        # One sqlite file holds every entry; no per-entry pickle files.
        assert sorted(p.name for p in tmp_path.iterdir()) == [STORE_FILENAME]

    def test_version_bump_invalidates_stale_entries(self, tmp_path, monkeypatch):
        config = CacheConfig(memory=False, disk=True, directory=str(tmp_path))
        first = ResultCache(config)
        first.memoize("ns", ("key",), lambda: "v1-result")
        first.close()
        hit = ResultCache(config)
        assert hit.memoize("ns", ("key",), lambda: pytest.fail("should hit")) == "v1-result"
        hit.close()
        # Edited code has another source digest: the hit becomes a miss.
        monkeypatch.setattr(store_module, "_source_digest", "edited-code")
        calls = []
        value = ResultCache(config).memoize(
            "ns", ("key",), lambda: calls.append(1) or "recomputed"
        )
        assert value == "recomputed" and calls == [1]

    def test_corrupt_entry_recomputed(self, tmp_path):
        config = CacheConfig(memory=False, disk=True, directory=str(tmp_path))
        ResultCache(config).memoize("ns", ("key",), lambda: "good")
        assert _rewrite_payloads(tmp_path, lambda _payload: b"\xde\xad\xbe\xef") == 1
        assert ResultCache(config).memoize("ns", ("key",), lambda: "fresh") == "fresh"

    def test_corrupt_entry_quarantined_not_deleted(self, tmp_path):
        """The bad bytes move to the quarantine table — out of the path, diagnosable."""
        config = CacheConfig(memory=False, disk=True, directory=str(tmp_path))
        ResultCache(config).memoize("ns", ("key",), lambda: "good")
        _rewrite_payloads(tmp_path, lambda _payload: b"not a pickle")
        reader = ResultCache(config)
        assert reader.lookup("ns", ("key",)) == (None, False)
        with DurableStore(tmp_path / STORE_FILENAME) as store:
            assert store.counts() == {"quarantine": 1}
        # The quarantined row no longer shadows the slot: a recompute
        # writes a fresh entry that reads back cleanly.
        assert reader.memoize("ns", ("key",), lambda: "fresh") == "fresh"
        assert ResultCache(config).lookup("ns", ("key",)) == ("fresh", True)

    def test_truncated_entry_recomputed(self, tmp_path):
        """A torn write (crash mid-flush) reads as a miss, not an error."""
        config = CacheConfig(memory=False, disk=True, directory=str(tmp_path))
        ResultCache(config).memoize("ns", ("key",), lambda: {"payload": list(range(256))})
        _rewrite_payloads(tmp_path, lambda payload: payload[: len(payload) // 2])
        calls = []
        value = ResultCache(config).memoize(
            "ns", ("key",), lambda: calls.append(1) or "recomputed"
        )
        assert value == "recomputed" and calls == [1]

    def test_unpicklable_value_returned_and_not_stored(self, tmp_path):
        config = CacheConfig(memory=False, disk=True, directory=str(tmp_path))
        cache = ResultCache(config)
        value = cache.memoize("ns", ("k",), threading.Lock)
        assert isinstance(value, type(threading.Lock()))
        assert cache.stats["ns"].misses == 1
        assert cache.lookup("ns", ("k",)) == (None, False)
        cache.close()
        with DurableStore(tmp_path / STORE_FILENAME) as store:
            assert store.counts() == {}

    def test_unusable_directory_turns_the_disk_tier_off(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        cache = ResultCache(CacheConfig(memory=True, disk=True, directory=str(blocker)))
        assert cache.memoize("ns", ("key",), lambda: "computed") == "computed"
        assert not cache.config.disk

    def test_disabled_cache_always_computes(self):
        with cache_overridden(memory=False, disk=False) as cache:
            calls = []
            cache.memoize("ns", ("key",), lambda: calls.append(1))
            cache.memoize("ns", ("key",), lambda: calls.append(1))
            assert len(calls) == 2


def _spans(trace):
    return (tuple(trace.compute), tuple(trace.transfers))


class TestPlanAndRunCaching:
    """Cached planner/simulator results equal their uncached reference."""

    def test_plan_mobius_cached_equals_uncached(self, tiny_model, topo22):
        config = MobiusConfig(microbatch_size=1)
        with cache_overridden(memory=False, disk=False):
            reference = plan_mobius(tiny_model, topo22, config)
        with cache_overridden(memory=True, disk=False) as cache:
            warm = plan_mobius(tiny_model, topo22, config)
            again = plan_mobius(tiny_model, topo22, config)
            assert cache.stats["plan"].memory_hits == 1
        assert again is warm  # memoized object, not a re-solve
        assert warm.plan.partition.boundaries == reference.plan.partition.boundaries
        assert warm.plan.mapping == reference.plan.mapping
        assert warm.plan.estimated_step_seconds == reference.plan.estimated_step_seconds
        assert warm.partition_result.nodes_explored == reference.partition_result.nodes_explored
        assert warm.profile_report.layer_costs == reference.profile_report.layer_costs

    def test_plan_mobius_disk_roundtrip_equals_memory(self, tiny_model, topo22, tmp_path):
        config = MobiusConfig(microbatch_size=1)
        with cache_overridden(memory=True, disk=True, directory=str(tmp_path)):
            computed = plan_mobius(tiny_model, topo22, config)
        # Fresh cache, same directory: the result arrives via pickle.
        with cache_overridden(memory=True, disk=True, directory=str(tmp_path)) as cache:
            loaded = plan_mobius(tiny_model, topo22, config)
            assert cache.stats["plan"].store_hits == 1
        assert loaded.plan.partition.boundaries == computed.plan.partition.boundaries
        assert loaded.plan.estimated_step_seconds == computed.plan.estimated_step_seconds
        assert loaded.profile_report.layer_costs == computed.profile_report.layer_costs

    def test_run_system_cached_equals_uncached(self, tiny_model, topo22):
        with cache_overridden(memory=False, disk=False):
            reference = run_system("mobius", tiny_model, topo22, microbatch_size=1)
        with cache_overridden(memory=True, disk=False) as cache:
            first = run_system("mobius", tiny_model, topo22, microbatch_size=1)
            second = run_system("mobius", tiny_model, topo22, microbatch_size=1)
            assert cache.stats["system"].memory_hits == 1
        assert first.step_seconds == reference.step_seconds == second.step_seconds
        assert _spans(first.trace) == _spans(reference.trace) == _spans(second.trace)

    def test_oom_results_cached_too(self):
        from repro.models.zoo import gpt_8b

        with cache_overridden(memory=True, disk=False) as cache:
            first = run_system("gpipe", gpt_8b(), topo_2_2(), microbatch_size=1)
            second = run_system("gpipe", gpt_8b(), topo_2_2(), microbatch_size=1)
            assert first.status == second.status == "oom"
            assert cache.stats["system"].memory_hits == 1

    def test_different_config_misses(self, tiny_model, topo22):
        with cache_overridden(memory=True, disk=False) as cache:
            run_system("mobius", tiny_model, topo22, microbatch_size=1)
            run_system("mobius", tiny_model, topo22, microbatch_size=2)
            assert cache.stats["system"].misses == 2
            assert cache.stats["system"].hits == 0

    def test_returned_shell_is_fresh_but_payload_shared(self, tiny_model, topo22):
        with cache_overridden(memory=True, disk=False):
            first = run_system("mobius", tiny_model, topo22, microbatch_size=1)
            second = run_system("mobius", tiny_model, topo22, microbatch_size=1)
        assert first is not second  # callers may tag their own extras
        first.extras["marker"] = True
        assert "marker" not in second.extras
        assert first.trace is second.trace  # the heavy payload is shared


class TestDurableBackendTier:
    """A store handed to the cache (the serve daemon's) is its durable tier."""

    def test_backend_hit_counted_and_promoted(self, tmp_path):
        with DurableStore(tmp_path / "s.sqlite") as store:
            with cache_overridden(memory=True, disk=False) as cache:
                cache.use_store(store)
                cache.memoize("ns", ("key",), lambda: "durable-value")
                cache.clear_memory()  # simulate a restarted process
                calls = []
                value = cache.memoize(
                    "ns", ("key",), lambda: calls.append(1) or "recomputed"
                )
                assert value == "durable-value" and not calls
                assert cache.stats["ns"].store_hits == 1
                # Promoted into memory: the next read is a memory hit.
                cache.memoize("ns", ("key",), lambda: pytest.fail("should hit memory"))
                assert cache.stats["ns"].memory_hits == 1

    def test_store_writes_through(self, tmp_path):
        with DurableStore(tmp_path / "s.sqlite") as store:
            with cache_overridden(memory=True, disk=False) as cache:
                cache.use_store(store)
                cache.memoize("ns", ("key",), lambda: "computed")
            assert store.counts() == {"ns": 1}

    def test_broken_backend_degrades_to_recompute(self, tmp_path):
        store = DurableStore(tmp_path / "s.sqlite")
        store.close()  # every operation now fails inside the store
        with cache_overridden(memory=False, disk=False) as cache:
            cache.use_store(store)
            calls = []
            value = cache.memoize(
                "ns", ("key",), lambda: calls.append(1) or "computed"
            )
            assert value == "computed" and calls == [1]
            assert cache.lookup("ns", ("key",)) == (None, False)  # no raise

    def test_detach_restores_two_tier_behavior(self, tmp_path):
        with DurableStore(tmp_path / "s.sqlite") as store:
            with cache_overridden(memory=True, disk=False) as cache:
                cache.use_store(store)
                cache.memoize("ns", ("key",), lambda: "durable-value")
                cache.use_store(None)
                cache.clear_memory()
                assert cache.lookup("ns", ("key",)) == (None, False)
            # The cache only forgot the store; its owner still holds it open.
            assert store.counts() == {"ns": 1}

    def test_override_closes_the_store_it_opened(self, tmp_path):
        with cache_overridden(memory=True, disk=True, directory=str(tmp_path)) as cache:
            cache.memoize("ns", ("key",), lambda: "value")
            store = cache._store
            assert store is not None
        assert store._conn is None
        assert cache._store is None


class TestOneTransaction:
    """Nested memoize calls reach the store in their outermost call's put."""

    @pytest.fixture
    def puts(self, monkeypatch):
        calls = []
        original_put = DurableStore.put

        def counting_put(self, rows):
            calls.append(sorted(namespace for namespace, _, _ in rows))
            original_put(self, rows)

        monkeypatch.setattr(DurableStore, "put", counting_put)
        return calls

    def test_suite_mobius_cell_commits_once(self, tiny_model, topo22, disk_cache, puts):
        result = run_system("mobius", tiny_model, topo22)
        assert result.status == "ok"
        assert puts == [["partition", "plan", "system"]]
        assert disk_cache._store.writes == 1

    def test_finished_inner_rows_persist_when_the_outer_compute_raises(
        self, disk_cache, puts
    ):
        def outer():
            disk_cache.memoize("inner", ("key",), lambda: "inner-value")
            raise RuntimeError("outer failed")

        with pytest.raises(RuntimeError, match="outer failed"):
            disk_cache.memoize("outer", ("key",), outer)
        assert puts == [["inner"]]
        disk_cache.clear_memory()
        assert disk_cache.lookup("inner", ("key",)) == ("inner-value", True)
        assert disk_cache.lookup("outer", ("key",)) == (None, False)

    def test_each_thread_commits_its_own_rows(self, disk_cache, puts):
        ready = threading.Barrier(2)

        def solve(name):
            def inner():
                ready.wait(timeout=10)  # both outer calls are open now
                return name

            disk_cache.memoize(
                "outer", (name,), lambda: disk_cache.memoize("inner", (name,), inner)
            )

        threads = [threading.Thread(target=solve, args=(name,)) for name in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert puts == [["inner", "outer"], ["inner", "outer"]]

    def test_a_memoize_on_another_store_commits_its_own(self, tmp_path, puts):
        with DurableStore(tmp_path / "other.sqlite") as other:
            inner_cache = ResultCache(CacheConfig(memory=False))
            inner_cache.use_store(other)
            with cache_overridden(memory=False, disk=True, directory=str(tmp_path)) as cache:
                cache.memoize(
                    "outer", ("key",),
                    lambda: inner_cache.memoize("inner", ("key",), lambda: 1),
                )
            assert other.counts() == {"inner": 1}
        assert puts == [["inner"], ["outer"]]


class TestGlobalConfiguration:
    def test_get_cache_returns_singleton(self):
        assert get_cache() is get_cache()

    def test_override_restores_previous(self):
        before = get_cache()
        with cache_overridden(memory=False):
            assert get_cache() is not before
        assert get_cache() is before

    def test_configure_closes_the_replaced_store(self, tmp_path):
        with cache_overridden():
            cache = configure_cache(disk=True, directory=str(tmp_path / "a"))
            cache.memoize("ns", ("key",), lambda: "value")
            store = cache._store
            assert store is not None and store._conn is not None
            configure_cache(directory=str(tmp_path / "b"))
            assert store._conn is None
            assert cache._store is None

    def test_override_leaves_the_previous_store_open(self, tmp_path):
        with cache_overridden(disk=True, directory=str(tmp_path)) as outer:
            outer.memoize("ns", ("key",), lambda: "value")
            with cache_overridden(memory=False):
                pass
            assert get_cache() is outer
            assert outer._store is not None and outer._store._conn is not None
