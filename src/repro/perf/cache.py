"""Two-tier (memory + durable store) content-addressed result cache.

Layout and lifecycle:

* The **memory tier** is a per-process dict keyed by
  ``(namespace, fingerprint)``.  It is always safe — entries never outlive
  the process that computed them — and is enabled by default, so repeated
  ``plan_mobius``/``run_system`` calls within one figure (or across figures
  in one suite run) hit it transparently.
* The **store tier** is at most one :class:`~repro.perf.store.DurableStore`
  (sqlite).  With the disk tier on, each process opens
  ``<directory>/cache.sqlite`` lazily on first use (default directory
  ``.mobius_cache/``, override with ``MOBIUS_CACHE_DIR``); supervised
  workers (:mod:`repro.serve.supervisor`) are spawned and adopt the
  parent's configuration on entry, so no connection crosses a process
  boundary.  The store is what lets worker *processes* share
  results, and it survives across runs, so it is **opt-in**: the suite
  runner and ``repro figures`` enable it; plain library use and the test
  suite do not, which keeps stale results from one code revision out of
  the next run's tests.  The whole directory is safe to delete at any
  time.  The serve daemon hands its own store to the same slot
  (:meth:`ResultCache.use_store`).
* One store transaction per outermost :meth:`ResultCache.memoize`: a
  memoize nested in another's compute on the same store (a suite cell's
  ``system`` over ``plan`` over ``partition``) hands its row to the
  outermost call, which writes every row in one
  :meth:`~repro.perf.store.DurableStore.put` when its compute returns or
  raises.  The pending rows live in a context variable, so each thread
  collects its own.
* :func:`~repro.perf.store.source_digest` names the code.  The store
  writes every row under a namespace that starts with it, so a result
  computed by other code (or pickled in another entry format) is never
  returned.  The memory tier needs no digest: it never outlives its
  process.

Environment overrides (read at import): ``MOBIUS_CACHE=0`` disables both
tiers, ``MOBIUS_CACHE_DISK=1`` enables the disk tier, ``MOBIUS_CACHE_DIR``
relocates it.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import os
import sqlite3
import time
from pathlib import Path
from typing import Callable

from repro.perf.fingerprint import fingerprint
from repro.perf.store import DurableStore, adopt_source_digest

__all__ = [
    "CacheConfig",
    "CacheStats",
    "LeaseTable",
    "ResultCache",
    "cache_overridden",
    "configure_cache",
    "get_cache",
    "merge_stats",
    "stats_delta",
]

DEFAULT_CACHE_DIR = ".mobius_cache"

#: The disk tier's sqlite file inside the cache directory.
STORE_FILENAME = "cache.sqlite"

#: ``(store, rows)`` of the outermost :meth:`ResultCache.memoize` running
#: in this context: the rows its nested calls computed for that store.
_pending_rows: contextvars.ContextVar[tuple[DurableStore, list] | None] = (
    contextvars.ContextVar("repro_cache_pending_rows", default=None)
)


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Which tiers are active and where the disk tier lives."""

    memory: bool = True
    disk: bool = False
    directory: str = DEFAULT_CACHE_DIR

    @staticmethod
    def from_env() -> "CacheConfig":
        enabled = os.environ.get("MOBIUS_CACHE", "1") != "0"
        return CacheConfig(
            memory=enabled,
            disk=enabled and os.environ.get("MOBIUS_CACHE_DISK", "0") == "1",
            directory=os.environ.get("MOBIUS_CACHE_DIR", DEFAULT_CACHE_DIR),
        )


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters for one namespace."""

    memory_hits: int = 0
    store_hits: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.store_hits

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "store_hits": self.store_hits,
            "misses": self.misses,
        }


class ResultCache:
    """Content-addressed memoization of expensive planning/simulation calls.

    Values are stored as-is in the memory tier and pickled in the store;
    callers must treat returned values as immutable (or copy before
    mutating).
    """

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig.from_env()
        self._memory: dict[tuple[str, str], object] = {}
        self.stats: dict[str, CacheStats] = {}
        self._store: DurableStore | None = None
        #: True when ``_store`` was opened here from ``config.disk`` (and
        #: so is closed by :meth:`close`); a handed-in store is its owner's.
        self._owns_store = False

    def use_store(self, store: DurableStore | None) -> None:
        """Make ``store`` the durable tier; ``None`` reverts to ``config.disk``."""
        self.close()
        self._store = store

    def close(self) -> None:
        """Close the store this cache opened; forget a handed-in one."""
        if self._owns_store and self._store is not None:
            self._store.close()
        self._store = None
        self._owns_store = False

    def _durable(self) -> DurableStore | None:
        if self._store is None and self.config.disk:
            try:
                self._store = DurableStore(Path(self.config.directory) / STORE_FILENAME)
            except (OSError, sqlite3.Error):
                # An unusable cache directory turns the disk tier off for
                # this cache: persistence is best-effort, planning is not.
                self.config = dataclasses.replace(self.config, disk=False)
                return None
            self._owns_store = True
        return self._store

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------

    def memoize(self, namespace: str, key_obj, compute: Callable[[], object]):
        """Return the cached value for ``key_obj``, computing it on a miss.

        ``key_obj`` is any fingerprintable value describing the *complete*
        input of ``compute`` — over-keying costs a miss, under-keying would
        return wrong results, so include everything.  A miss reaches the
        store in the outermost memoize's one transaction (module docstring).
        """
        store = self._durable()
        if not self.config.memory and store is None:
            return compute()
        key = (namespace, fingerprint(key_obj))
        stats = self.stats.setdefault(namespace, CacheStats())

        if self.config.memory and key in self._memory:
            stats.memory_hits += 1
            return self._memory[key]

        if store is not None:
            value, found = store.get(*key)
            if found:
                stats.store_hits += 1
                if self.config.memory:
                    self._memory[key] = value
                return value

        stats.misses += 1
        if store is None:
            return self._remember(key, compute())
        pending = _pending_rows.get()
        if pending is not None and pending[0] is store:
            # Nested in a memoize on the same store: the outermost call writes.
            value = self._remember(key, compute())
            pending[1].append((*key, value))
            return value
        rows: list = []
        token = _pending_rows.set((store, rows))
        try:
            value = self._remember(key, compute())
            rows.append((*key, value))
        finally:
            # Also when compute raised: the rows nested calls finished stand.
            _pending_rows.reset(token)
            if rows:
                store.put(rows)
        return value

    def _remember(self, key: tuple[str, str], value):
        if self.config.memory:
            self._memory[key] = value
        return value

    def adopt(self, namespace: str, key_obj, value) -> None:
        """Insert into the memory tier only.

        For values a pool worker computed *and already persisted* through
        its own cache (workers share the store file): re-pickling them
        here would double the write per cell for no durability gain.  If
        the worker's write failed, later processes recompute — the store
        is best-effort by contract.
        """
        if self.config.memory:
            self._memory[(namespace, fingerprint(key_obj))] = value

    def lookup(self, namespace: str, key_obj) -> tuple[object, bool]:
        """Non-counting probe; returns ``(value, found)``."""
        key = (namespace, fingerprint(key_obj))
        if self.config.memory and key in self._memory:
            return self._memory[key], True
        store = self._durable()
        if store is not None:
            return store.get(*key)
        return None, False

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------

    def clear_memory(self) -> None:
        self._memory.clear()

    def stats_snapshot(self) -> dict:
        """JSON-ready ``{namespace: {hits, misses, ...}}`` mapping."""
        return {name: stats.as_dict() for name, stats in sorted(self.stats.items())}


def merge_stats(*snapshots: dict) -> dict:
    """Sum per-namespace ``CacheStats.as_dict()`` snapshots key by key.

    Workers in a process pool each accumulate their own hit/miss counters;
    without folding them back the suite's summary table under-reports
    every lookup that happened off-process.  The result has the same
    ``{namespace: {hits, memory_hits, ...}}`` shape as
    :meth:`ResultCache.stats_snapshot`.
    """
    merged: dict[str, dict] = {}
    for snapshot in snapshots:
        for namespace, counters in snapshot.items():
            into = merged.setdefault(namespace, {})
            for key, value in counters.items():
                into[key] = into.get(key, 0) + value
    return {namespace: merged[namespace] for namespace in sorted(merged)}


def stats_delta(before: dict, after: dict) -> dict:
    """Per-namespace counters of ``after`` minus ``before``.

    Both are :meth:`ResultCache.stats_snapshot` mappings; namespaces whose
    counters did not move are left out.
    """
    delta: dict[str, dict] = {}
    for namespace, counters in after.items():
        previous = before.get(namespace, {})
        entry = {
            key: value - previous.get(key, 0) for key, value in counters.items()
        }
        if any(entry.values()):
            delta[namespace] = entry
    return delta


class LeaseTable:
    """Cross-process in-flight dedup: one lease per ``(namespace, digest)``.

    A lease is an ``O_CREAT | O_EXCL`` file under the cache directory whose
    payload is the holder's PID.  Before computing a cell, a scheduler
    worker tries to :meth:`acquire` the cell's lease; losing the race means
    *another process is already computing this exact key*, so the loser
    :meth:`wait`\\ s for the lease to clear and re-reads the cache instead
    of solving the same problem twice (serve-style request coalescing,
    lifted to suite workers).

    Leases are purely a work-avoidance protocol, never a correctness one:
    every outcome — lease broken because its holder died, a wait that
    exhausts ``max_polls``, a filesystem that refuses the lock file —
    degrades to "compute it yourself", which is exactly what would have
    happened without the table.  Wall time therefore paces the polling
    loop but never steers what any caller returns.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        poll_interval: float = 0.05,
        max_polls: int = 2400,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        self.directory = Path(directory)
        self.poll_interval = poll_interval
        self.max_polls = max_polls
        self._sleep = sleeper  # injectable so coalescing tests never wait

    def _path(self, namespace: str, digest: str) -> Path:
        return self.directory / f"{namespace}.{digest}.lease"

    def acquire(self, namespace: str, digest: str) -> bool:
        """Try to claim the lease; ``True`` iff this process now holds it."""
        path = self._path(namespace, digest)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return True  # unusable lease dir: degrade to computing locally
        try:
            os.write(fd, str(os.getpid()).encode("ascii"))
        finally:
            os.close(fd)
        return True

    def release(self, namespace: str, digest: str) -> None:
        with contextlib.suppress(OSError):
            os.unlink(self._path(namespace, digest))

    def holder(self, namespace: str, digest: str) -> int | None:
        """PID currently holding the lease, or ``None`` if unheld."""
        try:
            payload = self._path(namespace, digest).read_bytes()
            return int(payload) if payload else None
        except (OSError, ValueError):
            return None

    @staticmethod
    def _alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except OSError:
            return True  # EPERM: alive but not ours
        return True

    def wait(self, namespace: str, digest: str) -> str:
        """Block until the lease clears; ``"released"|"broken"|"timeout"``.

        ``released`` — the holder finished (its result should now be in
        the shared cache tier); ``broken`` — the holder died mid-compute
        and this caller removed the stale lease; ``timeout`` — the holder
        outlived ``max_polls`` polls.  On ``broken``/``timeout`` the
        caller should compute the value itself.
        """
        path = self._path(namespace, digest)
        for _ in range(self.max_polls):
            if not path.exists():
                return "released"
            pid = self.holder(namespace, digest)
            if pid is not None and not self._alive(pid):
                self.release(namespace, digest)
                return "broken"
            self._sleep(self.poll_interval)
        return "timeout"


_cache = ResultCache()


def get_cache() -> ResultCache:
    """The process-global cache used by ``plan_mobius``/``run_system``."""
    return _cache


def _derived_cache(
    memory: bool | None, disk: bool | None, directory: str | None
) -> ResultCache:
    """A fresh cache configured like the global one except where given."""
    current = _cache.config
    return ResultCache(
        CacheConfig(
            memory=current.memory if memory is None else memory,
            disk=current.disk if disk is None else disk,
            directory=current.directory if directory is None else directory,
        )
    )


def configure_cache(
    *,
    memory: bool | None = None,
    disk: bool | None = None,
    directory: str | None = None,
    source_digest: str | None = None,
) -> ResultCache:
    """Replace the global cache with one using the given configuration.

    Unspecified fields keep their current values.  A ``source_digest``
    (a parent process's :func:`~repro.perf.store.source_digest`) becomes
    this process's, so its store rows are the parent's.  The replaced
    cache's own store is closed.  Returns the new cache (with empty memory
    tier and fresh stats).
    """
    global _cache
    if source_digest is not None:
        adopt_source_digest(source_digest)
    previous = _cache
    _cache = _derived_cache(memory, disk, directory)
    previous.close()
    return _cache


@contextlib.contextmanager
def cache_overridden(
    *,
    memory: bool | None = None,
    disk: bool | None = None,
    directory: str | None = None,
):
    """Temporarily swap the global cache (tests, CLI ``--no-cache``).

    The previous cache comes back untouched.  A store the temporary cache
    opened is closed when the block exits, so the cache directory can be
    deleted right after.
    """
    global _cache
    previous = _cache
    override = _cache = _derived_cache(memory, disk, directory)
    try:
        yield override
    finally:
        override.close()
        _cache = previous
