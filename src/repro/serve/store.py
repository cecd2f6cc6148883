# Re-export kept while perfbench/tracing.py hooks DurableStore.put/get under this module path.
from repro.perf.store import DurableStore as DurableStore  # noqa: F401
