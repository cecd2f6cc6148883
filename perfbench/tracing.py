"""Spans around the program's layer entry points, for the traced run.

The benchmark measures its end-to-end numbers with tracing off.  A traced
run installs the wrappers below around public (and a few well-known
private) entry points of ``repro``, runs the same ops again, and reports
per-layer *self* times and work counters.  A layer's self time is its
span's duration minus the part covered by its child spans on the same
thread, so nested layers are never counted twice.

Every target is looked up by name and skipped when it does not exist, so
a later change that renames or deletes a layer leaves the traced run
working; the missing layer then reports zero and is listed under
``missing`` in the run record.

The span list is kept in memory and written once, at the end, as
Chrome-trace JSON in the event shape of
``repro.analysis.timeline.to_chrome_trace`` (``"ph": "X"`` complete
events with microsecond ``ts``/``dur``), so a planner trace opens in
Perfetto next to a simulated timeline.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

_perf_counter = time.perf_counter


class Span:
    """One recorded call of a wrapped entry point."""

    __slots__ = ("name", "tid", "parent", "start", "end", "child", "args")

    def __init__(self, name: str, tid: int, parent: "Span | None", start: float):
        self.name = name
        self.tid = tid
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0
        self.args: dict = {}

    @property
    def self_seconds(self) -> float:
        return (self.end - self.start) - self.child


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._local = threading.local()
        self._tids: dict[int, int] = {}
        self._tid_lock = threading.Lock()
        self._undo: list = []
        self.origin = _perf_counter()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._tid_lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, self._tid(), stack[-1] if stack else None, _perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = _perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.spans.append(span)

    def interval(self, name: str, start: float, end: float, lane: str) -> None:
        """Record a span that was not a call (for example a queue wait)."""
        span = Span(name, -1, None, start)
        span.end = end
        span.args["lane"] = lane
        self.spans.append(span)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, *, pre=None, post=None):
        """``fn`` wrapped in a span; ``post`` adds counters to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre(args, kwargs) if pre is not None else None
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    span.args.update(post(args, kwargs, result, state))
                return result
            finally:
                tracer.end(span)

        return traced

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = replacement
            self._undo.append(lambda: owner.__setitem__(attr, original))
        else:
            original = owner.__dict__[attr]
            setattr(owner, attr, replacement)
            self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reporting -----------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return sum(span.self_seconds for span in self.spans if span.name == name)

    def counter(self, name: str, key: str) -> int:
        return sum(span.args.get(key, 0) for span in self.spans if span.name == name)

    def to_chrome_trace(self) -> str:
        lanes: dict[str, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = span.tid
            if tid < 0:
                lane = span.args.get("lane", "interval")
                tid = lanes.setdefault(lane, 1000 + len(lanes))
            args = {k: v for k, v in span.args.items() if k != "lane"}
            args["self_us"] = round(span.self_seconds * 1e6, 3)
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 0,
                    "tid": tid,
                    "ts": (span.start - self.origin) * 1e6,
                    "dur": (span.end - span.start) * 1e6,
                    "args": args,
                }
            )
        metadata = [{"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "host"}}]
        metadata += [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
             "args": {"name": f"thread {tid}"}}
            for tid in sorted(set(self._tids.values()))
        ]
        metadata += [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": lane}}
            for lane, tid in lanes.items()
        ]
        return json.dumps({"traceEvents": metadata + events}, indent=None)


def _resolve(path: str):
    """``"pkg.mod:Class"`` -> the object, or ``None`` if it does not exist."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, attr_path.split(".")):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def _has(owner, attr: str) -> bool:
    if owner is None:
        return False
    if isinstance(owner, dict):
        return attr in owner
    return attr in getattr(owner, "__dict__", {})


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics are read from."""

    def hook(path: str, attr: str, name: str, **kw) -> None:
        owner = _resolve(path)
        if not _has(owner, attr):
            tracer.missing.append(f"{path}.{attr}")
            return
        current = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
        tracer.patch(owner, attr, tracer.wrap(name, current, **kw))

    # Planning: partition search (every registered partitioner) and mapping.
    partitioners = _resolve("repro.core.api:_PARTITIONERS")
    if isinstance(partitioners, dict):
        for key in list(partitioners):
            hook("repro.core.api:_PARTITIONERS", key, "core.partition",
                 post=lambda a, k, r, s: {"nodes": getattr(r, "nodes_explored", 0)})
    else:
        tracer.missing.append("repro.core.api._PARTITIONERS")
    for attr in ("cross_mapping", "sequential_mapping"):
        hook("repro.core.api", attr, "core.mapping",
             post=lambda a, k, r, s: {"schemes": getattr(r, "schemes_evaluated", 0)})

    # Task-graph builders and the event simulator.
    hook("repro.core.pipeline", "build_mobius_tasks", "core.pipeline.build")
    for attr in ("run_gpipe", "run_deepspeed_pipeline", "run_zero_offload", "run_deepspeed"):
        hook("repro.experiments.runner", attr, "baselines.build")

    def sim_counters(runner) -> tuple[int, int, int]:
        stats = getattr(getattr(runner, "network", None), "stats", None)
        return (
            getattr(getattr(runner, "sim", None), "events_processed", 0),
            getattr(stats, "reallocations", 0),
            getattr(stats, "flows_touched", 0),
        )

    def sim_post(args, kwargs, result, before):
        after = sim_counters(args[0])
        tasks = args[1] if len(args) > 1 else kwargs.get("tasks", ())
        return {
            "tasks": len(tasks),
            "events": after[0] - before[0],
            "reallocations": after[1] - before[1],
            "flows_touched": after[2] - before[2],
        }

    hook("repro.sim.tasks:TaskGraphRunner", "execute", "sim.execute",
         pre=lambda a, k: sim_counters(a[0]), post=sim_post)

    # Serving: front door, queue, supervised solve, durable store.
    # Keyed by the request object, recorded before submit() can enqueue it,
    # so the dispatch thread always finds its job's submit time.
    submitted: dict[int, float] = {}

    def submit_pre(args, kwargs):
        request = args[1] if len(args) > 1 else kwargs.get("request")
        submitted[id(request)] = _perf_counter()
        return id(request)

    def submit_post(args, kwargs, ticket, key):
        if getattr(ticket, "coalesced", False):
            submitted.pop(key, None)
            return {"coalesced": 1}
        return {"coalesced": 0}

    def answer_pre(args, kwargs):
        job = args[1] if len(args) > 1 else kwargs.get("job")
        queued = submitted.pop(id(getattr(job, "request", None)), None)
        if queued is not None:
            tracer.interval("serve.queue_wait", queued, _perf_counter(), "queue")
        return None

    hook("repro.serve.daemon:PlanService", "submit", "serve.submit",
         pre=submit_pre, post=submit_post)
    hook("repro.serve.daemon:PlanService", "_answer", "serve.answer", pre=answer_pre)
    hook("repro.serve.supervisor:Supervisor", "solve", "serve.solve")
    for attr in ("put", "get"):
        hook("repro.serve.store:DurableStore", attr, "serve.store")

    # Result cache: hit/miss counts only (no span, it would only nest).
    cache_cls = _resolve("repro.perf.cache:ResultCache")
    if _has(cache_cls, "memoize") and _has(cache_cls, "lookup"):
        memoize, lookup = cache_cls.__dict__["memoize"], cache_cls.__dict__["lookup"]

        def counted_memoize(cache, namespace, key_obj, compute):
            config = getattr(cache, "config", None)
            enabled = bool(
                getattr(config, "memory", False)
                or getattr(config, "disk", False)
                or getattr(cache, "_backend", None)
            )
            computed = []

            def compute_once():
                computed.append(True)
                return compute()

            value = memoize(cache, namespace, key_obj, compute_once)
            if enabled:
                tracer.count("perf.cache.misses" if computed else "perf.cache.hits")
            return value

        def counted_lookup(cache, namespace, key_obj):
            value, found = lookup(cache, namespace, key_obj)
            tracer.count("perf.cache.hits" if found else "perf.cache.misses")
            return value, found

        tracer.patch(cache_cls, "memoize", counted_memoize)
        tracer.patch(cache_cls, "lookup", counted_lookup)
    else:
        tracer.missing.append("repro.perf.cache.ResultCache.memoize/lookup")

    # Content fingerprints: every module that imported the function by name.
    original = _resolve("repro.perf.fingerprint:fingerprint")
    if original is None:
        tracer.missing.append("repro.perf.fingerprint.fingerprint")
    else:
        traced = tracer.wrap("perf.fingerprint", original)
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and module.__dict__.get("fingerprint") is original
            ):
                tracer.patch(module, "fingerprint", traced)

    # The suite: the cell drain and Figure 13's training loop.
    def drain_post(args, kwargs, report, state):
        return {
            "cells_computed": getattr(report, "cells_computed", 0),
            "duplicate_solves": getattr(report, "duplicate_solves", 0),
        }

    hook("repro.experiments.schedule", "drain", "experiments.drain", post=drain_post)
    hook("repro.experiments.fig13_convergence", "run_convergence_experiment",
         "training.fig13")


#: (metric, unit, how it is read from the tracer).
LAYER_METRICS = (
    ("core.partition.s", "s", lambda t: t.self_seconds("core.partition")),
    ("core.partition.nodes", "count", lambda t: t.counter("core.partition", "nodes")),
    ("core.mapping.s", "s", lambda t: t.self_seconds("core.mapping")),
    ("core.mapping.schemes", "count", lambda t: t.counter("core.mapping", "schemes")),
    ("core.pipeline.build.s", "s", lambda t: t.self_seconds("core.pipeline.build")),
    ("baselines.build.s", "s", lambda t: t.self_seconds("baselines.build")),
    ("sim.execute.s", "s", lambda t: t.self_seconds("sim.execute")),
    ("sim.tasks", "count", lambda t: t.counter("sim.execute", "tasks")),
    ("sim.events", "count", lambda t: t.counter("sim.execute", "events")),
    ("sim.reallocations", "count", lambda t: t.counter("sim.execute", "reallocations")),
    ("sim.flows_touched", "count", lambda t: t.counter("sim.execute", "flows_touched")),
    ("sim.us_per_event", "us", lambda t: (
        t.self_seconds("sim.execute") * 1e6 / t.counter("sim.execute", "events")
        if t.counter("sim.execute", "events") else 0.0
    )),
    ("serve.submit.s", "s", lambda t: t.self_seconds("serve.submit")),
    ("serve.queue_wait.s", "s", lambda t: t.self_seconds("serve.queue_wait")),
    ("serve.solve.s", "s", lambda t: t.self_seconds("serve.solve")),
    ("serve.store.s", "s", lambda t: t.self_seconds("serve.store")),
    ("serve.coalesced", "count", lambda t: t.counter("serve.submit", "coalesced")),
    ("perf.cache.hits", "count", lambda t: t.counts.get("perf.cache.hits", 0)),
    ("perf.cache.misses", "count", lambda t: t.counts.get("perf.cache.misses", 0)),
    ("perf.fingerprint.s", "s", lambda t: t.self_seconds("perf.fingerprint")),
    ("experiments.drain.s", "s", lambda t: t.self_seconds("experiments.drain")),
    ("experiments.cells_computed", "count",
     lambda t: t.counter("experiments.drain", "cells_computed")),
    ("experiments.duplicate_solves", "count",
     lambda t: t.counter("experiments.drain", "duplicate_solves")),
    ("training.fig13.s", "s", lambda t: t.self_seconds("training.fig13")),
)


def layer_metrics(tracer: Tracer, scale: float) -> dict[str, dict]:
    """Every layer metric; times are multiplied by the host-speed ``scale``."""
    return {
        name: {"value": read(tracer) * (scale if unit in ("s", "us") else 1), "unit": unit}
        for name, unit, read in LAYER_METRICS
    }


__all__ = ["LAYER_METRICS", "Span", "Tracer", "install", "layer_metrics"]
