"""Crash-safe content-addressed sqlite store: the result cache's durable tier.

One sqlite file holds every durable artifact, keyed by ``(namespace,
digest)``.  Two kinds of process open one:

* the figure suite and its pool workers, through
  :class:`repro.perf.cache.ResultCache` with the disk tier on — the cache
  opens ``<directory>/cache.sqlite`` itself, so workers share results with
  each other and with the next run;
* the serve daemon and its solver workers, which open their ``store_path``
  and hand it to the cache, so a restarted daemon (and every fresh worker)
  inherits every plan its predecessors computed.

Namespaces are keyed on the code by the store itself: every row is
written under ``<source digest>/<namespace>``, where the digest
(:func:`source_digest`) hashes every ``.py`` file of the ``repro``
package.  Any source edit makes every older row invisible — never
returned, never deleted — so a process of one code revision can neither
unpickle another revision's entry format nor return a result another
revision's code computed.

Durability model (the store must survive anything the chaos harnesses
throw at it):

* **atomic writes** — sqlite WAL journaling; one :meth:`DurableStore.put`
  is one transaction over all its rows, which either commits or leaves the
  previous state intact, and concurrent processes are serialized by
  sqlite's own locking (``busy_timeout``);
* **bounded busy retries** — ``SQLITE_BUSY``/``SQLITE_LOCKED`` from a
  concurrent writer (N workers share one WAL file) is *contention, not
  corruption*: the operation is retried ``busy_retries`` times with a
  paced sleep and then degrades to a miss/no-op, leaving the healthy
  database file untouched — only genuine database errors trigger
  whole-file recovery;
* **checksum-verified reads** — every payload carries its SHA-256; a
  mismatch (torn page, bit rot, a writer killed mid-commit on a broken
  filesystem) quarantines the entry into the ``quarantine`` table and
  reads as a miss, so callers recompute instead of crashing or — worse —
  planning from silently wrong bytes;
* **whole-file recovery** — a database sqlite itself rejects is renamed
  to ``<name>.corrupt.<k>`` (preserved for diagnosis) and replaced by a
  fresh one: the caller restarts cold rather than not at all.

Once a store is open, every failure path degrades to a cache miss, and a
value that cannot be pickled is simply not stored; no store error reaches
a caller.  Only a directory that cannot hold the file fails the
constructor.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import sqlite3
import threading
import time
from collections.abc import Sequence
from pathlib import Path
from typing import Callable, TypeVar

__all__ = ["DurableStore", "adopt_source_digest", "source_digest"]

#: The ``repro`` package directory whose sources key the store's rows.
_PACKAGE_DIR = Path(__file__).parent.parent

#: This process's source digest: computed on first use, or adopted from
#: the parent process (:func:`adopt_source_digest`).
_source_digest: str | None = None

_T = TypeVar("_T")

#: Pause between SQLITE_BUSY retries (seconds).  Pacing only — wall time
#: never steers what a store operation returns, just when it re-tries.
_BUSY_RETRY_DELAY = 0.05


def _is_busy_error(err: sqlite3.Error) -> bool:
    """Lock contention (retryable) vs a genuine database error.

    sqlite3 maps both SQLITE_BUSY and SQLITE_LOCKED onto
    ``OperationalError``; the message is the only portable discriminator
    on Pythons without ``sqlite_errorcode``.
    """
    code = getattr(err, "sqlite_errorcode", None)
    if code is not None:
        return code in (5, 6)  # SQLITE_BUSY, SQLITE_LOCKED
    message = str(err).lower()
    return "database is locked" in message or "database table is locked" in message


def source_digest() -> str:
    """sha256 over the sorted ``(relative path, bytes)`` pairs of every
    ``.py`` file in the ``repro`` package, computed once per process.

    A result computed by other code is stored under another digest, so it
    is never returned: the cache is keyed on the code as well as on the
    inputs.
    """
    global _source_digest
    digest = _source_digest
    if digest is None:
        sha = hashlib.sha256()
        files = sorted(
            (path.relative_to(_PACKAGE_DIR).as_posix(), path)
            for path in _PACKAGE_DIR.rglob("*.py")
        )
        for name, path in files:
            data = path.read_bytes()
            sha.update(f"{name}\0{len(data)}\0".encode())
            sha.update(data)
        digest = _source_digest = sha.hexdigest()
    return digest


def adopt_source_digest(digest: str) -> None:
    """Use ``digest`` as this process's source digest.

    Supervised workers adopt their parent's, so a file edited during a
    drain cannot split one run across two digests.
    """
    global _source_digest
    _source_digest = digest


def _versioned(namespace: str) -> str:
    """The row namespace this code revision reads and writes."""
    return f"{source_digest()}/{namespace}"


_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS entries (
        namespace TEXT NOT NULL,
        digest TEXT NOT NULL,
        payload BLOB NOT NULL,
        checksum TEXT NOT NULL,
        PRIMARY KEY (namespace, digest)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS quarantine (
        namespace TEXT NOT NULL,
        digest TEXT NOT NULL,
        payload BLOB NOT NULL,
        checksum TEXT NOT NULL,
        reason TEXT NOT NULL,
        PRIMARY KEY (namespace, digest)
    )
    """,
)


class DurableStore:
    """Content-addressed sqlite store shared by every process that opens it.

    Thread-safe (one connection guarded by a lock) and multi-process-safe
    (sqlite WAL).  All read/write errors are absorbed: reads degrade to
    misses, writes to no-ops, and an unreadable database file is
    quarantined and recreated.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        busy_timeout: float = 30.0,
        busy_retries: int = 3,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        if busy_retries < 0:
            raise ValueError(f"busy_retries must be >= 0, got {busy_retries}")
        self.path = Path(path)
        self.busy_timeout = busy_timeout
        self.busy_retries = busy_retries
        self._sleep = sleeper  # injectable so contention tests never wait
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection | None = None
        #: Entries quarantined by this instance (checksum/unpickle failures).
        self.quarantined_entries = 0
        #: Whole-file recoveries performed by this instance.
        self.recovered_files = 0
        #: SQLITE_BUSY/SQLITE_LOCKED collisions absorbed by retry.
        self.busy_events = 0
        #: Write transactions committed by this instance.
        self.writes = 0
        with self._lock:
            self._open_locked()

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    def _open_locked(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = self._connect()
        except sqlite3.Error:
            # The file exists but sqlite cannot use it: quarantine and
            # start fresh.  A second failure means the *directory* is
            # unusable — surface that one.
            self._quarantine_file_locked()
            self._conn = self._connect()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            str(self.path), timeout=self.busy_timeout, check_same_thread=False
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            # Reads are point lookups of recently written rows, so a small
            # page cache (256 KiB; sqlite's default is 2 MiB) costs no
            # speed and keeps each process's footprint down.
            conn.execute("PRAGMA cache_size=-256")
            conn.execute(f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}")
            for statement in _SCHEMA:
                conn.execute(statement)
            conn.commit()
        except sqlite3.Error:
            with contextlib.suppress(sqlite3.Error):
                conn.close()
            raise
        return conn

    def _quarantine_file_locked(self) -> None:
        """Move an unusable database aside as ``<name>.corrupt.<k>``."""
        if self._conn is not None:
            with contextlib.suppress(sqlite3.Error):
                self._conn.close()
            self._conn = None
        k = 1
        while (target := self.path.with_name(f"{self.path.name}.corrupt.{k}")).exists():
            k += 1
        with contextlib.suppress(OSError):
            os.replace(self.path, target)
        for sibling in (f"{self.path.name}-wal", f"{self.path.name}-shm"):
            with contextlib.suppress(OSError):
                os.remove(self.path.with_name(sibling))
        self.recovered_files += 1

    def _recover_locked(self) -> None:
        """Last-resort reset after a mid-operation database error."""
        self._quarantine_file_locked()
        try:
            self._conn = self._connect()
        except sqlite3.Error:
            self._conn = None  # directory unusable: store stays inert

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                with contextlib.suppress(sqlite3.Error):
                    self._conn.close()
                self._conn = None

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Core keyed-bytes protocol
    # ------------------------------------------------------------------

    def _attempt_locked(
        self, operation: Callable[[sqlite3.Connection], _T]
    ) -> tuple[_T | None, str]:
        """One attempt under the lock: ``(result, 'ok'|'busy'|'failed')``."""
        if self._conn is None:
            return None, "failed"
        try:
            return operation(self._conn), "ok"
        except sqlite3.Error as err:
            if not _is_busy_error(err):
                self._recover_locked()
                return None, "failed"
            self.busy_events += 1
            return None, "busy"

    def _run(
        self, operation: Callable[[sqlite3.Connection], _T]
    ) -> tuple[_T | None, bool]:
        """Run one sqlite operation with busy retries; ``(result, ok)``.

        Busy/locked errors (another writer holds the WAL) are retried up
        to ``busy_retries`` times and then degrade to ``ok=False`` with
        the database file left intact; any other sqlite error triggers
        whole-file recovery.  The instance lock is held only around each
        sqlite call — the paced sleep between retries runs unlocked, so
        one contended operation never stalls the other dispatch threads'
        reads and writes for the whole retry budget.
        """
        for attempt in range(self.busy_retries + 1):
            with self._lock:
                result, status = self._attempt_locked(operation)
            if status == "ok":
                return result, True
            if status == "failed":
                return None, False
            if attempt < self.busy_retries:
                self._sleep(_BUSY_RETRY_DELAY * (attempt + 1))
        return None, False  # contention outlasted the budget: miss, not recovery

    def put(self, rows: Sequence[tuple[str, str, object]]) -> None:
        """Atomically persist ``(namespace, digest, value)`` rows in one
        transaction; best-effort, never raises.

        A value that cannot be pickled is left out; the others still commit.
        """
        entries = []
        for namespace, digest, value in rows:
            try:
                payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                continue
            checksum = hashlib.sha256(payload).hexdigest()
            entries.append((_versioned(namespace), digest, payload, checksum))
        if not entries:
            return

        def operation(conn: sqlite3.Connection) -> None:
            with conn:  # one transaction: commit or nothing
                for entry in entries:
                    conn.execute(
                        "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)", entry
                    )
            self.writes += 1  # under the instance lock, after the commit

        self._run(operation)

    def get(self, namespace: str, digest: str) -> tuple[object, bool]:
        """Checksum-verified read; corrupt entries quarantine and miss."""
        key = _versioned(namespace)

        def operation(conn: sqlite3.Connection) -> tuple[bytes, str] | None:
            return conn.execute(
                "SELECT payload, checksum FROM entries "
                "WHERE namespace = ? AND digest = ?",
                (key, digest),
            ).fetchone()

        row, ok = self._run(operation)
        if not ok or row is None:
            return None, False
        payload, checksum = row
        if hashlib.sha256(payload).hexdigest() != checksum:
            self._quarantine_entry(key, digest, payload, checksum, "checksum-mismatch")
            return None, False
        try:
            return pickle.loads(payload), True
        except Exception:
            self._quarantine_entry(key, digest, payload, checksum, "unpickle-failed")
            return None, False

    def _quarantine_entry(
        self, namespace: str, digest: str, payload: bytes, checksum: str, reason: str
    ) -> None:
        """Move one row (``namespace`` already versioned) to ``quarantine``."""
        self.quarantined_entries += 1

        def operation(conn: sqlite3.Connection) -> None:
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO quarantine VALUES (?, ?, ?, ?, ?)",
                    (namespace, digest, payload, checksum, reason),
                )
                conn.execute(
                    "DELETE FROM entries WHERE namespace = ? AND digest = ?",
                    (namespace, digest),
                )

        self._run(operation)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """This version's per-namespace entry counts (plus ``quarantine``)."""
        prefix = _versioned("")

        def operation(
            conn: sqlite3.Connection,
        ) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
            rows = conn.execute(
                "SELECT namespace, COUNT(*) FROM entries GROUP BY namespace"
            ).fetchall()
            quarantined = conn.execute(
                "SELECT namespace, COUNT(*) FROM quarantine GROUP BY namespace"
            ).fetchall()
            return rows, quarantined

        result, ok = self._run(operation)
        if not ok or result is None:
            return {}
        rows, quarantined = result
        counts = {
            namespace[len(prefix):]: count
            for namespace, count in sorted(rows)
            if namespace.startswith(prefix)
        }
        quarantine = sum(
            count for namespace, count in quarantined if namespace.startswith(prefix)
        )
        if quarantine:
            counts["quarantine"] = quarantine
        return counts
