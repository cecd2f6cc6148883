"""Two-tier (memory + disk) content-addressed result cache.

Layout and lifecycle:

* The **memory tier** is a per-process dict keyed by
  ``(namespace, fingerprint)``.  It is always safe — entries never outlive
  the process that computed them — and is enabled by default, so repeated
  ``plan_mobius``/``run_system`` calls within one figure (or across figures
  in one suite run) hit it transparently.
* The **disk tier** persists pickled results under
  ``<directory>/v<CACHE_VERSION>/<namespace>/<fingerprint>.pkl`` (default
  directory ``.mobius_cache/``, override with ``MOBIUS_CACHE_DIR``).  It is
  what lets worker *processes* share results, and it survives across runs,
  so it is **opt-in**: the suite runner and ``repro figures`` enable it;
  plain library use and the test suite do not, which keeps stale results
  from one code revision out of the next run's tests.  The whole directory
  is safe to delete at any time.
* ``CACHE_VERSION`` names the on-disk entry format.  Bumping it orphans
  every existing ``v<N>`` subdirectory — old entries are simply never read
  again — so stale-format entries can never be returned.

Environment overrides (read at import): ``MOBIUS_CACHE=0`` disables both
tiers, ``MOBIUS_CACHE_DISK=1`` enables the disk tier, ``MOBIUS_CACHE_DIR``
relocates it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import pickle
import shutil
import tempfile
import time
from pathlib import Path
from typing import Callable

from repro.perf.fingerprint import fingerprint

__all__ = [
    "CACHE_VERSION",
    "CacheConfig",
    "CacheStats",
    "LeaseTable",
    "ResultCache",
    "cache_overridden",
    "configure_cache",
    "get_cache",
    "merge_stats",
]

#: On-disk entry format version; bump to invalidate all persisted entries.
#: v2: the fast-MIP solver overhaul — PartitionResult/MIPSolution grew
#: fields (warm_started, pivots, cuts_added) and the partition search moved
#: to a deterministic node budget, so v1 entries describe a different
#: search and must never be returned.
#: v3: Trace moved to columnar span storage — its pickle payload is now
#: exported column arrays, so v2 entries (list-of-spans layout) cannot be
#: loaded into the new class.
#: v4: PartitionResult and MobiusConfig lost their racing-portfolio
#: fields, so v3 pickles of either no longer match the classes they
#: unpickle into.
#: v5: the partition search gained the pipeline-bubble bound, so v4
#: entries hold the old ``optimal``/``nodes_explored`` and lack
#: ``lower_bound``/``gap``.
CACHE_VERSION = 5

DEFAULT_CACHE_DIR = ".mobius_cache"


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
    disk_hits: int = 0
    backend_hits: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits + self.backend_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "backend_hits": self.backend_hits,
            "misses": self.misses,
        }


class ResultCache:
    """Content-addressed memoization of expensive planning/simulation calls.

    Values are stored as-is in the memory tier and pickled in the disk
    tier; callers must treat returned values as immutable (or copy before
    mutating).
    """

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig.from_env()
        self._memory: dict[tuple[str, str], object] = {}
        self.stats: dict[str, CacheStats] = {}
        #: Optional durable third tier (``repro.serve.store.DurableStore``
        #: duck-type: ``load(namespace, digest) -> (value, found)`` and
        #: ``store(namespace, digest, value)``).  Consulted after the disk
        #: tier and written through on every store; always best-effort —
        #: a broken backend degrades to recomputation, never to failure.
        self._backend = None

    def attach_backend(self, backend) -> None:
        """Attach a durable store tier (the serve daemon's sqlite store)."""
        self._backend = backend

    def detach_backend(self) -> None:
        self._backend = None

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------

    def memoize(self, namespace: str, key_obj, compute: Callable[[], object]):
        """Return the cached value for ``key_obj``, computing it on a miss.

        ``key_obj`` is any fingerprintable value describing the *complete*
        input of ``compute`` — over-keying costs a miss, under-keying would
        return wrong results, so include everything.
        """
        if not (self.config.memory or self.config.disk or self._backend):
            return compute()
        key = (namespace, fingerprint(key_obj))
        stats = self.stats.setdefault(namespace, CacheStats())

        if self.config.memory and key in self._memory:
            stats.memory_hits += 1
            return self._memory[key]

        if self.config.disk:
            value, found = self._disk_read(key)
            if found:
                stats.disk_hits += 1
                if self.config.memory:
                    self._memory[key] = value
                return value

        if self._backend is not None:
            value, found = self._backend_read(key)
            if found:
                stats.backend_hits += 1
                if self.config.memory:
                    self._memory[key] = value
                return value

        stats.misses += 1
        value = compute()
        self.store(namespace, key_obj, value)
        return value

    def store(self, namespace: str, key_obj, value) -> None:
        """Insert a value computed elsewhere (e.g. by a worker process)."""
        key = (namespace, fingerprint(key_obj))
        if self.config.memory:
            self._memory[key] = value
        if self.config.disk:
            self._disk_write(key, value)
        if self._backend is not None:
            try:
                self._backend.store(key[0], key[1], value)
            except Exception:
                pass  # durable tier is best-effort

    def adopt(self, namespace: str, key_obj, value) -> None:
        """Insert into the memory tier only.

        For values a pool worker computed *and already persisted* through
        its own cache (workers share the disk directory): re-pickling them
        here would double the write per cell for no durability gain.  If
        the worker's disk write failed, later processes recompute — the
        disk tier is best-effort by contract.
        """
        if self.config.memory:
            self._memory[(namespace, fingerprint(key_obj))] = value

    def lookup(self, namespace: str, key_obj) -> tuple[object, bool]:
        """Non-counting probe; returns ``(value, found)``."""
        key = (namespace, fingerprint(key_obj))
        if self.config.memory and key in self._memory:
            return self._memory[key], True
        if self.config.disk:
            value, found = self._disk_read(key)
            if found:
                return value, True
        if self._backend is not None:
            return self._backend_read(key)
        return None, False

    def _backend_read(self, key: tuple[str, str]) -> tuple[object, bool]:
        try:
            return self._backend.load(key[0], key[1])
        except Exception:
            return None, False  # durable tier is best-effort

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------

    def _entry_path(self, key: tuple[str, str]) -> Path:
        namespace, digest = key
        return Path(self.config.directory) / f"v{CACHE_VERSION}" / namespace / f"{digest}.pkl"

    def _disk_read(self, key: tuple[str, str]) -> tuple[object, bool]:
        path = self._entry_path(key)
        try:
            with path.open("rb") as handle:
                return pickle.load(handle), True
        except FileNotFoundError:
            return None, False
        except Exception:
            # Corrupt or truncated entry (e.g. interrupted writer without
            # atomic rename support, or a torn page after a crash): treat
            # it as a miss and quarantine the bytes under ``.corrupt`` —
            # out of the lookup path, but preserved for diagnosis.  The
            # caller recomputes; the recomputed value overwrites the entry.
            with contextlib.suppress(OSError):
                os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
            return None, False

    def _disk_write(self, key: tuple[str, str], value) -> None:
        path = self._entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_name, path)  # atomic: readers never see partial files
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_name)
                raise
        except (OSError, pickle.PicklingError):
            pass  # persistence is best-effort; the computed value still flows

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------

    def clear_memory(self) -> None:
        self._memory.clear()

    def clear_disk(self) -> None:
        """Delete this cache version's persisted entries (all namespaces)."""
        shutil.rmtree(
            Path(self.config.directory) / f"v{CACHE_VERSION}", ignore_errors=True
        )

    def reset_stats(self) -> None:
        self.stats.clear()

    def stats_snapshot(self) -> dict:
        """JSON-ready ``{namespace: {hits, misses, ...}}`` mapping."""
        return {name: stats.as_dict() for name, stats in sorted(self.stats.items())}

    def __len__(self) -> int:
        return len(self._memory)


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

    def clear(self) -> None:
        """Remove every lease file (end-of-drain hygiene)."""
        with contextlib.suppress(OSError):
            for path in self.directory.glob("*.lease"):
                with contextlib.suppress(OSError):
                    path.unlink()


_cache = ResultCache()


def get_cache() -> ResultCache:
    """The process-global cache used by ``plan_mobius``/``run_system``."""
    return _cache


def configure_cache(
    *,
    memory: bool | None = None,
    disk: bool | None = None,
    directory: str | None = None,
) -> ResultCache:
    """Replace the global cache with one using the given configuration.

    Unspecified fields keep their current values.  Returns the new cache
    (with empty memory tier and fresh stats).
    """
    global _cache
    current = _cache.config
    _cache = ResultCache(
        CacheConfig(
            memory=current.memory if memory is None else memory,
            disk=current.disk if disk is None else disk,
            directory=current.directory if directory is None else directory,
        )
    )
    return _cache


@contextlib.contextmanager
def cache_overridden(
    *,
    memory: bool | None = None,
    disk: bool | None = None,
    directory: str | None = None,
):
    """Temporarily swap the global cache (tests, CLI ``--no-cache``)."""
    global _cache
    previous = _cache
    try:
        yield configure_cache(memory=memory, disk=disk, directory=directory)
    finally:
        _cache = previous
