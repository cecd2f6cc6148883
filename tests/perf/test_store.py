"""DurableStore crash-safety: checksums, quarantine, whole-file recovery."""

import sqlite3

import repro.perf.store as store_module
from repro.perf.store import DurableStore


def _flip_payload(path, garbage=b"\x00\x01\x02"):
    conn = sqlite3.connect(str(path))
    try:
        with conn:
            return conn.execute(
                "UPDATE entries SET payload = ?", (garbage,)
            ).rowcount
    finally:
        conn.close()


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        with DurableStore(tmp_path / "s.sqlite") as store:
            store.put([("ns", "digest-1", {"answer": 42})])
            value, found = store.get("ns", "digest-1")
            assert found and value == {"answer": 42}

    def test_miss(self, tmp_path):
        with DurableStore(tmp_path / "s.sqlite") as store:
            assert store.get("ns", "nope") == (None, False)

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with DurableStore(path) as store:
            store.put([("ns", "digest-1", ("tuple", 1))])
        with DurableStore(path) as store:
            assert store.get("ns", "digest-1") == (("tuple", 1), True)

    def test_overwrite_replaces(self, tmp_path):
        with DurableStore(tmp_path / "s.sqlite") as store:
            store.put([("ns", "d", "old")])
            store.put([("ns", "d", "new")])
            assert store.get("ns", "d") == ("new", True)

    def test_counts(self, tmp_path):
        with DurableStore(tmp_path / "s.sqlite") as store:
            store.put([("a", "1", 1)])
            store.put([("a", "2", 2)])
            store.put([("b", "1", 3)])
            assert store.counts() == {"a": 2, "b": 1}

    def test_unpicklable_value_is_a_noop(self, tmp_path):
        with DurableStore(tmp_path / "s.sqlite") as store:
            store.put([("ns", "d", lambda: None)])  # functions cannot pickle
            assert store.get("ns", "d") == (None, False)
            assert store.writes == 0

    def test_one_put_is_one_transaction(self, tmp_path):
        with DurableStore(tmp_path / "s.sqlite") as store:
            store.put([("a", "1", 1), ("b", "1", lambda: None), ("b", "2", 2)])
            assert store.writes == 1
            # The unpicklable row is left out; the others commit together.
            assert store.counts() == {"a": 1, "b": 1}
            assert store.get("b", "2") == (2, True)
            store.put([])
            assert store.writes == 1


class TestEntryQuarantine:
    def test_checksum_mismatch_reads_as_miss(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with DurableStore(path) as store:
            store.put([("ns", "d", "value")])
        assert _flip_payload(path) == 1
        with DurableStore(path) as store:
            assert store.get("ns", "d") == (None, False)
            assert store.quarantined_entries == 1
            # The entry moved to the quarantine table — not silently lost.
            assert store.counts() == {"quarantine": 1}
            # And the recomputed value can be stored again and read back.
            store.put([("ns", "d", "recomputed")])
            assert store.get("ns", "d") == ("recomputed", True)

    def test_unpicklable_payload_quarantined(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with DurableStore(path) as store:
            store.put([("ns", "d", "value")])
        # Valid checksum over garbage bytes: passes verification, fails
        # unpickling — the second line of defence.
        import hashlib

        garbage = b"not a pickle"
        conn = sqlite3.connect(str(path))
        try:
            with conn:
                conn.execute(
                    "UPDATE entries SET payload = ?, checksum = ?",
                    (garbage, hashlib.sha256(garbage).hexdigest()),
                )
        finally:
            conn.close()
        with DurableStore(path) as store:
            assert store.get("ns", "d") == (None, False)
            assert store.quarantined_entries == 1


class TestFileRecovery:
    def test_garbage_file_set_aside_and_recreated(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with DurableStore(path) as store:
            store.put([("ns", "d", "value")])
        path.write_bytes(b"definitely not a sqlite database")
        with DurableStore(path) as store:
            assert store.recovered_files == 1
            assert store.get("ns", "d") == (None, False)  # cold, not crashed
            store.put([("ns", "d", "fresh")])
            assert store.get("ns", "d") == ("fresh", True)
        corpses = list(tmp_path.glob("s.sqlite.corrupt.*"))
        assert len(corpses) == 1  # preserved for diagnosis

    def test_repeated_recoveries_number_the_corpses(self, tmp_path):
        path = tmp_path / "s.sqlite"
        for _ in range(2):
            path.write_bytes(b"garbage")
            DurableStore(path).close()
        names = sorted(p.name for p in tmp_path.glob("s.sqlite.corrupt.*"))
        assert names == ["s.sqlite.corrupt.1", "s.sqlite.corrupt.2"]


class TestVersionedNamespaces:
    def test_rows_carry_the_cache_version(self, tmp_path, monkeypatch):
        path = tmp_path / "s.sqlite"
        with DurableStore(path) as store:
            store.put([("plan", "digest", "report")])
        conn = sqlite3.connect(str(path))
        try:
            [(namespace,)] = conn.execute("SELECT namespace FROM entries").fetchall()
        finally:
            conn.close()
        assert namespace == f"{store_module.source_digest()}/plan"
        # Other code neither returns nor deletes the row, and counts only
        # its own.
        monkeypatch.setattr(store_module, "_source_digest", "other-code")
        with DurableStore(path) as store:
            assert store.get("plan", "digest") == (None, False)
            assert store.counts() == {}
        monkeypatch.undo()
        with DurableStore(path) as store:
            assert store.get("plan", "digest") == ("report", True)


class _FlakyConnection:
    """Proxy that raises SQLITE_BUSY for the first ``failures`` executes."""

    def __init__(self, conn, failures, message="database is locked"):
        self._conn = conn
        self.failures = failures
        self.message = message

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc_info):
        return self._conn.__exit__(*exc_info)

    def execute(self, *args, **kwargs):
        if self.failures > 0:
            self.failures -= 1
            raise sqlite3.OperationalError(self.message)
        return self._conn.execute(*args, **kwargs)


class TestBusyRetries:
    """SQLITE_BUSY is contention, not corruption: retry, then miss."""

    def _flaky_store(self, tmp_path, failures, **kwargs):
        sleeps = []
        store = DurableStore(
            tmp_path / "s.db", sleeper=sleeps.append, **kwargs
        )
        store._conn = _FlakyConnection(store._conn, failures)
        return store, sleeps

    def test_transient_contention_is_absorbed(self, tmp_path):
        store, sleeps = self._flaky_store(tmp_path, failures=2)
        store.put([("ns", "k", {"v": 1})])
        assert store.get("ns", "k") == ({"v": 1}, True)
        assert store.busy_events == 2
        assert store.recovered_files == 0  # the file was never touched
        assert len(sleeps) == 2
        assert sleeps == sorted(sleeps)  # paced: delays grow per attempt
        store.close()

    def test_contention_outlasting_the_budget_degrades_to_a_miss(
        self, tmp_path
    ):
        store, _ = self._flaky_store(tmp_path, failures=99, busy_retries=3)
        store.put([("ns", "k", "value")])  # all 4 attempts busy: no-op, no raise
        assert store.busy_events == 4
        assert store.recovered_files == 0
        assert store.writes == 0
        # The store stays usable once the contention clears.
        store._conn.failures = 0
        store.put([("ns", "k", "value")])
        assert store.get("ns", "k") == ("value", True)
        store.close()

    def test_busy_row_rolls_back_the_whole_transaction(self, tmp_path):
        class BusyOnSecondInsert(_FlakyConnection):
            inserts = 0

            def execute(self, sql, *args):
                if sql.startswith("INSERT"):
                    self.inserts += 1
                    if self.inserts == 2:
                        raise sqlite3.OperationalError(self.message)
                return self._conn.execute(sql, *args)

        store = DurableStore(tmp_path / "s.db", sleeper=lambda _s: None, busy_retries=0)
        store._conn = BusyOnSecondInsert(store._conn, 0)
        # The first row is inserted, the second hits contention: neither
        # commits, and the put counts no write.
        store.put([("ns", "k1", 1), ("ns", "k2", 2)])
        assert (store.busy_events, store.writes) == (1, 0)
        assert store.get("ns", "k1") == (None, False)
        store.close()

    def test_sqlite_locked_variant_is_also_retryable(self, tmp_path):
        store = DurableStore(tmp_path / "s.db", sleeper=lambda _s: None)
        store._conn = _FlakyConnection(
            store._conn, 1, message="database table is locked"
        )
        store.put([("ns", "k", 7)])
        assert store.busy_events == 1
        assert store.recovered_files == 0
        assert store.get("ns", "k") == (7, True)
        store.close()

    def test_genuine_database_error_still_recovers_the_file(self, tmp_path):
        store = DurableStore(tmp_path / "s.db", sleeper=lambda _s: None)
        store.put([("ns", "k", 1)])

        class _Corrupt:
            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def execute(self, *args, **kwargs):
                raise sqlite3.DatabaseError("database disk image is malformed")

            def close(self):
                pass

        store._conn = _Corrupt()
        store.put([("ns", "k2", 2)])
        assert store.busy_events == 0
        assert store.recovered_files == 1  # recovery, not retry
        # Recovery swapped in a fresh database: old entries are gone,
        # new writes land.
        store.put([("ns", "k3", 3)])
        assert store.get("ns", "k3") == (3, True)
        assert store.get("ns", "k") == (None, False)
        store.close()

    def test_negative_retry_budget_rejected(self, tmp_path):
        import pytest

        with pytest.raises(ValueError, match="busy_retries"):
            DurableStore(tmp_path / "s.db", busy_retries=-1)


class TestTwoWriterContention:
    def test_two_threads_one_file_no_recovery(self, tmp_path):
        """Two writers hammering one WAL file: every entry lands, the
        busy-retry path absorbs any collision, and neither store ever
        escalates to whole-file recovery."""
        import threading

        path = tmp_path / "shared.db"
        stores = [DurableStore(path, busy_timeout=5.0) for _ in range(2)]
        errors = []

        def hammer(store, who):
            try:
                for i in range(50):
                    store.put([("ns", f"{who}-{i}", (who, i))])
            except Exception as err:  # pragma: no cover - the assertion
                errors.append(err)

        threads = [
            threading.Thread(target=hammer, args=(store, who))
            for who, store in enumerate(stores)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert errors == []
        assert all(store.recovered_files == 0 for store in stores)
        reader = stores[0]
        for who in range(2):
            for i in range(50):
                assert reader.get("ns", f"{who}-{i}") == ((who, i), True)
        assert reader.counts()["ns"] == 100
        for store in stores:
            store.close()


class TestSourceDigest:
    """The store's rows are keyed on the ``repro`` sources."""

    @staticmethod
    def _digest(monkeypatch, package):
        monkeypatch.setattr(store_module, "_PACKAGE_DIR", package)
        monkeypatch.setattr(store_module, "_source_digest", None)
        return store_module.source_digest()

    def test_digest_follows_every_source_file(self, tmp_path, monkeypatch):
        package = tmp_path / "repro"
        (package / "sim").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "sim" / "costs.py").write_text("OVERHEAD = 1.5\n")
        (package / "notes.txt").write_text("not a source file")
        first = self._digest(monkeypatch, package)
        assert len(first) == 64
        assert self._digest(monkeypatch, package) == first
        (package / "notes.txt").write_text("still not a source file")
        assert self._digest(monkeypatch, package) == first
        (package / "sim" / "costs.py").write_text("OVERHEAD = 6.0\n")
        edited = self._digest(monkeypatch, package)
        assert edited != first
        (package / "sim" / "costs.py").rename(package / "costs.py")
        assert self._digest(monkeypatch, package) not in (first, edited)

    def test_computed_once_per_process(self, tmp_path, monkeypatch):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "a.py").write_text("A = 1\n")
        first = self._digest(monkeypatch, package)
        # A file edited after the first use does not split the process
        # across two digests.
        (package / "a.py").write_text("A = 2\n")
        assert store_module.source_digest() == first

    def test_adopted_digest_keys_the_rows(self, tmp_path, monkeypatch):
        from repro.perf.cache import cache_overridden, configure_cache, get_cache

        monkeypatch.setattr(store_module, "_source_digest", store_module.source_digest())
        with cache_overridden():
            configure_cache(
                memory=False, disk=True, directory=str(tmp_path), source_digest="parent"
            )
            try:
                get_cache().memoize("ns", ("key",), lambda: "value")
            finally:
                get_cache().close()
        assert store_module.source_digest() == "parent"
        conn = sqlite3.connect(str(tmp_path / "cache.sqlite"))
        try:
            rows = conn.execute("SELECT namespace FROM entries").fetchall()
        finally:
            conn.close()
        assert rows == [("parent/ns",)]
