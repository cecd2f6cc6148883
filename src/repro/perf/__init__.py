"""Performance layer: content-addressed memoization and parallel helpers.

The experiment suite re-solves identical planning problems and re-simulates
identical training steps many times over — ``fig5``, ``fig7`` and ``fig8``
share most of their (system, model, topology) cells, and ``fig11`` repeats
``fig10``'s runs verbatim.  This package provides the machinery to compute
each cell once:

* :mod:`repro.perf.fingerprint` — stable, cross-process content hashes for
  the planner's input objects (canonical-bytes encoding, never ``id()`` or
  ``repr()``);
* :mod:`repro.perf.cache` — a two-tier result cache keyed by those
  fingerprints: an in-memory dict plus at most one durable store;
* :mod:`repro.perf.store` — that store, a crash-safe sqlite file whose rows
  are keyed on the code (``source_digest``); the cache directory is safe
  to delete.

:mod:`repro.perf.bench` is the benchmark harness behind ``repro bench``:
one document shape and one gate for the ``sim``, ``serve``, ``suite`` and
``chaos`` benches.

:func:`repro.core.api.plan_mobius` and
:func:`repro.experiments.runner.run_system` consult the global cache
transparently; :mod:`repro.experiments.schedule` fans the suite's cells out
across processes that share the store.
"""

from repro.perf.cache import (
    CacheConfig,
    CacheStats,
    ResultCache,
    cache_overridden,
    configure_cache,
    get_cache,
)
from repro.perf.fingerprint import canonical_bytes, fingerprint

__all__ = [
    "CacheConfig",
    "CacheStats",
    "ResultCache",
    "cache_overridden",
    "canonical_bytes",
    "configure_cache",
    "fingerprint",
    "get_cache",
]
