"""The benchmark's four workloads: set-up, one measured pass, output checks.

Each workload drives ``repro`` through its public entry points only.  A
pass runs a fixed number of ops, each op the same amount of work, and
checks every op's output against the fingerprints pinned in
``reference.json``; an op that raises, is rejected or degraded, or whose
output differs from its reference counts as failed.

``run(state, n_ops, reference, stop_tracing=None)`` is the measured pass;
a traced pass passes the callable that removes the tracer.  The
closed-loop workloads check each op right after it with untraced code
only, and take no host-speed samples inside a traced op (the sample would
land in some layer's span).  The open-loop one checks after its window and
calls ``stop_tracing`` first, because its checks plan again.

See ``NOTES.md`` for why each workload exists and which layers it
isolates or bypasses.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import queue
import random
import shutil
import threading
import time
import traceback
from pathlib import Path

from repro.core.api import MobiusConfig, plan_mobius
from repro.core.pipeline import simulate_mobius
from repro.experiments.runner import SYSTEMS, run_system
from repro.hardware.topology import topo_1_3, topo_2_2, topo_4, topo_4_4
from repro.models.zoo import gpt_3b, gpt_8b, gpt_15b, gpt_51b
from repro.perf.cache import cache_overridden
from repro.perf.fingerprint import fingerprint

from hostspeed import HostSpeed

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

_clock = time.perf_counter


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def clear_hints() -> None:
    """Empty the planner's process-wide warm-start registry, if it has one.

    Each op must do the same work, so no op may start from hints an
    earlier op left behind.  The registry is private to ``repro.core.api``
    and may be removed; then there is nothing to clear.
    """
    import repro.core.api as api

    hints = getattr(api, "_PARTITION_HINTS", None)
    lock = getattr(api, "_PARTITION_HINTS_LOCK", None)
    if hints is None or lock is None:
        return
    with lock:
        hints.clear()


@dataclasses.dataclass
class PassResult:
    """What one measured pass did.

    ``latencies`` are raw seconds of the completed ops; ``scales`` the
    host-speed factor of each (see :mod:`hostspeed`).  ``window_s`` is the
    raw measured window and ``scaled_window_s`` the same in
    reference-host seconds; an open-loop window is set by its schedule and
    is not scaled.
    """

    latencies: list[float] = dataclasses.field(default_factory=list)
    scales: list[float] = dataclasses.field(default_factory=list)
    window_s: float = 0.0
    scaled_window_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    good: int = 0
    counters: dict = dataclasses.field(default_factory=dict)
    problems: list[str] = dataclasses.field(default_factory=list)
    calibration: list[float] = dataclasses.field(default_factory=list)
    late_s: float = 0.0

    @property
    def scaled_latencies(self) -> list[float]:
        return [latency * scale for latency, scale in zip(self.latencies, self.scales)]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def _error(err: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(err), err)).strip()


def closed_loop(n_ops: int, op, check, *, traced: bool) -> PassResult:
    """One client running ``op(index)`` back to back ``n_ops`` times.

    ``check(output)`` runs after each op, outside its timing, and returns a
    problem description or ``None``.  Host-speed samples are taken before
    and after every op and, unless ``traced``, twice a second inside it
    (see :class:`hostspeed.HostSpeed`).
    """
    result = PassResult()
    speed = HostSpeed(interval=None if traced else 0.5)
    speed.take()
    timed = []
    for index in range(n_ops):
        result.attempted += 1
        output, error, segments = speed.time(lambda: op(index))
        speed.take()
        timed.append((segments, error is None))
        if error is not None:
            result.fail(_error(error))
            continue
        problem = check(output)
        if problem is None:
            result.good += 1
        else:
            result.fail(problem)
    for segments, completed in timed:
        raw = sum(end - start for start, end in segments)
        scaled = speed.scaled(segments)
        result.window_s += raw
        result.scaled_window_s += scaled
        if completed:
            result.latencies.append(raw)
            result.scales.append(scaled / raw)
    result.calibration = [seconds for *_, seconds in speed.samples]
    return result


# ----------------------------------------------------------------------
# plan-8gpu: cold planning of the four Table-3 GPT models on 4+4 GPUs
# ----------------------------------------------------------------------


class Plan8Gpu:
    """Closed loop, one client; each op plans GPT-3B/8B/15B/51B on 4+4."""

    name = "plan-8gpu"
    nominal_op_s = 2.5

    def setup(self, seed: int, workdir: Path) -> dict:
        return {
            "rng": random.Random(seed),
            "topology": topo_4_4(),
            "models": [factory() for factory in (gpt_3b, gpt_8b, gpt_15b, gpt_51b)],
            "config": MobiusConfig(),
        }

    def run(self, state: dict, n_ops: int, reference: dict, stop_tracing=None) -> PassResult:
        expected = reference["plan-8gpu"]
        counters = {"partition_nodes": 0}

        def op(index: int) -> list:
            # The seed only permutes the order; with the hint registry
            # emptied, every op is the same four cold solves.
            order = state["rng"].sample(state["models"], len(state["models"]))
            clear_hints()
            with cache_overridden(memory=False, disk=False):
                return [
                    (model.name, plan_mobius(model, state["topology"], state["config"]))
                    for model in order
                ]

        def check(reports: list) -> str | None:
            counters["partition_nodes"] += sum(
                report.partition_result.nodes_explored for _, report in reports
            )
            wrong = [
                name for name, report in reports
                if fingerprint(report.plan) != expected[name]
            ]
            return f"plan fingerprint mismatch: {', '.join(sorted(wrong))}" if wrong else None

        result = closed_loop(n_ops, op, check, traced=stop_tracing is not None)
        result.counters = counters
        return result


# ----------------------------------------------------------------------
# sim-4gpu: one simulated step of every system on three 4-GPU cells
# ----------------------------------------------------------------------

SIM_CELLS = (
    ("GPT-8B/2+2", gpt_8b, topo_2_2),
    ("GPT-15B/1+3", gpt_15b, topo_1_3),
    ("GPT-15B/4", gpt_15b, topo_4),
)


def simulate_cell_system(cell: dict, system: str) -> tuple[str, float, object]:
    """One system's simulated step on one cell: ``(status, step_s, trace)``."""
    if system == "mobius":
        config = cell["config"]
        report = cell["plan"]
        run = simulate_mobius(
            report.plan,
            cell["topology"],
            report.cost_model,
            prefetch=config.prefetch,
            use_priorities=config.use_priorities,
        )
        return "ok", run.step_seconds, run.trace
    result = run_system(system, cell["model"], cell["topology"])
    return result.status, result.step_seconds, result.trace


def describe_outcome(status: str, step_seconds: float, trace) -> dict:
    return {
        "status": status,
        "step_seconds": repr(step_seconds),
        "trace": fingerprint(trace) if trace is not None else None,
    }


class Sim4Gpu:
    """Closed loop, one client; each op simulates all five systems on three cells."""

    name = "sim-4gpu"
    nominal_op_s = 1.2

    def setup(self, seed: int, workdir: Path) -> dict:
        clear_hints()
        config = MobiusConfig()
        cells = []
        with cache_overridden(memory=False, disk=False):
            for label, model_factory, topology_factory in SIM_CELLS:
                model, topology = model_factory(), topology_factory()
                cells.append(
                    {
                        "label": label,
                        "model": model,
                        "topology": topology,
                        "config": config,
                        "plan": plan_mobius(model, topology, config),
                    }
                )
        return {"rng": random.Random(seed), "cells": cells}

    def run(self, state: dict, n_ops: int, reference: dict, stop_tracing=None) -> PassResult:
        expected = reference["sim-4gpu"]
        pairs = [(cell, system) for cell in state["cells"] for system in SYSTEMS]
        counters = {"trace_spans": 0}

        def op(index: int) -> list:
            order = state["rng"].sample(pairs, len(pairs))
            with cache_overridden(memory=False, disk=False):
                return [
                    (cell["label"], system, simulate_cell_system(cell, system))
                    for cell, system in order
                ]

        def check(outcomes: list) -> str | None:
            wrong = []
            for label, system, (status, step_seconds, trace) in outcomes:
                if describe_outcome(status, step_seconds, trace) != expected[label][system]:
                    wrong.append(f"{label}/{system}")
                if trace is not None:
                    counters["trace_spans"] += len(trace.compute) + len(trace.transfers)
            return f"trace or step mismatch: {', '.join(sorted(wrong))}" if wrong else None

        result = closed_loop(n_ops, op, check, traced=stop_tracing is not None)
        result.counters = counters
        return result


# ----------------------------------------------------------------------
# serve-mixed: open-loop plan requests into an in-process PlanService
# ----------------------------------------------------------------------

SERVE_MODEL = gpt_8b
SERVE_TOPOLOGY = topo_2_2

#: Bandwidth factors (times the topology's PCIe bandwidth) of the hot set,
#: solved during set-up so that every hot request is a cache hit.
HOT_FACTORS = (0.90, 0.95, 1.05, 1.10)

#: Fresh requests draw their bandwidth factor from this narrow band: every
#: one is a distinct solve, yet all are the same size, so the median
#: latency does not depend on which factors a seed draws.
FRESH_RANGE = (0.99, 1.01)

#: One cycle of ticks: ``fresh`` is one new plan, ``dup`` one new plan sent
#: in the same tick by two tenants (the second coalesces onto the first),
#: ``hot`` one repeat from the hot set.  Per cycle: 5 fresh requests, 2
#: hot (29%), 4 solves.
CYCLE = ("fresh", "dup", "hot", "fresh", "fresh", "hot")

#: Seconds between ticks.  A solve takes about 0.19 s on an unloaded
#: 2.1 GHz Xeon vCPU, so the cycle's four solves keep the one dispatch
#: thread about a quarter busy.  A vCPU slowed to less than half speed by
#: other tenants still builds no queue; a queue would make latency depend
#: on host speed in a way no host-speed scaling can undo.
TICK_S = 0.5

#: The sender takes a host-speed sample before a tick only when the
#: service is idle and at least this long remains until the tick is due.
CALIBRATION_GAP_S = 0.06

#: A request answered later than this after its scheduled send time does
#: not count towards goodput.
LATENCY_LIMIT_S = 1.0

#: Fresh requests re-planned directly after the window to check the
#: served fingerprints.
SERVE_SAMPLE = 3


def _serve_request(topology, factor: float, tenant: str):
    from repro.serve.requests import PlanRequest

    return PlanRequest(
        model=SERVE_MODEL(),
        topology=topology,
        config=MobiusConfig(bandwidth=topology.pcie_bandwidth * factor),
        tenant=tenant,
    )


class ServeMixed:
    """Open loop at a fixed tick rate through one dispatch thread."""

    name = "serve-mixed"
    nominal_op_s = TICK_S

    def setup(self, seed: int, workdir: Path) -> dict:
        from repro.serve.daemon import PlanService, ServiceConfig

        clear_hints()
        store = workdir / f"serve-{seed}.sqlite"
        topology = SERVE_TOPOLOGY()
        with contextlib.ExitStack() as stack:
            stack.enter_context(cache_overridden())
            service = stack.enter_context(
                PlanService(ServiceConfig(store_path=str(store), worker="inline", workers=1))
            )
            for factor in HOT_FACTORS:
                response = service.plan(_serve_request(topology, factor, "warm"))
                if response.status != "ok":
                    raise RuntimeError(f"hot-set warm-up failed: {response.reason}")
            return {
                "seed": seed,
                "service": service,
                "topology": topology,
                "teardown": stack.pop_all(),
            }

    def close(self, state: dict) -> None:
        state["teardown"].close()

    def schedule(self, state: dict, n_ticks: int) -> list[list[tuple[str, object]]]:
        rng = random.Random(state["seed"])
        topology = state["topology"]
        used = set(HOT_FACTORS)
        ticks = []
        for tick in range(n_ticks):
            kind = CYCLE[tick % len(CYCLE)]
            if kind == "hot":
                factor = rng.choice(HOT_FACTORS)
                ticks.append([("hot", _serve_request(topology, factor, f"tenant-{tick % 4}"))])
                continue
            factor = round(rng.uniform(*FRESH_RANGE), 6)
            while factor in used:
                factor = round(rng.uniform(*FRESH_RANGE), 6)
            used.add(factor)
            if kind == "fresh":
                ticks.append([("fresh", _serve_request(topology, factor, f"tenant-{tick % 4}"))])
            else:
                ticks.append([
                    ("dup", _serve_request(topology, factor, "tenant-a")),
                    ("dup", _serve_request(topology, factor, "tenant-b")),
                ])
        return ticks

    def run(self, state: dict, n_ticks: int, reference: dict, stop_tracing=None) -> PassResult:
        from repro.serve.requests import ServeError

        service = state["service"]
        ticks = self.schedule(state, n_ticks)
        result = PassResult()
        pending: queue.Queue = queue.Queue()
        records: list[tuple] = []
        outstanding = [0]  # submitted and not yet collected, under `lock`
        lock = threading.Lock()
        idle = threading.Event()
        idle.set()

        def collect() -> None:
            while True:
                item = pending.get()
                if item is None:
                    return
                kind, request, due, ticket, error = item
                response = None
                if ticket is not None:
                    try:
                        response = service.result(ticket, timeout=60.0)
                    except TimeoutError as err:
                        error = err
                records.append((kind, request, due, _clock(), response, error))
                with lock:
                    outstanding[0] -= 1
                    if outstanding[0] == 0:
                        idle.set()

        speed = HostSpeed(interval=None)
        speed.take()
        collector = threading.Thread(target=collect, name="perfbench-collector")
        collector.start()
        start = _clock() + 0.05
        late = 0.0
        try:
            for index, batch in enumerate(ticks):
                due = start + index * TICK_S
                # Calibrate in the gap before the tick, and only while the
                # service is idle, so the sample never competes with a solve.
                gap = due - CALIBRATION_GAP_S - _clock()
                if index and gap > 0 and idle.wait(timeout=gap):
                    if due - _clock() > CALIBRATION_GAP_S:
                        speed.take()
                delay = due - _clock()
                if delay > 0:
                    time.sleep(delay)
                late = max(late, _clock() - due)
                with lock:
                    outstanding[0] += len(batch)
                    idle.clear()
                for kind, request in batch:
                    try:
                        ticket = service.submit(request)
                    except ServeError as err:
                        pending.put((kind, request, due, None, err))
                    else:
                        pending.put((kind, request, due, ticket, None))
        finally:
            pending.put(None)
            collector.join()
        if stop_tracing is not None:
            stop_tracing()  # the checks below plan again; keep them out of the trace
        speed.take()

        result.late_s = late
        result.window_s = result.scaled_window_s = max(done for *_, done, _, _ in records) - start
        result.calibration = [seconds for *_, seconds in speed.samples]
        stats = service.stats()
        result.counters = {
            "requests": len(records),
            "jobs": stats["completed"],
            "coalesced": stats["coalesced_joins"],
            "cache_hits": sum(
                1 for record in records if record[4] is not None and record[4].source == "cache"
            ),
        }
        hot_expected = reference["serve-mixed"]["hot"]
        dup_prints: dict[float, set] = {}
        fresh: list[tuple] = []
        for kind, request, due, done, response, error in records:
            result.attempted += 1
            latency = done - due
            result.latencies.append(latency)
            result.scales.append(speed.factor_at(due))
            if error is not None or response is None:
                result.fail(_error(error) if error is not None else "no response")
                continue
            if response.status != "ok" or response.degraded:
                result.fail(f"{response.status}: {response.reason}")
                continue
            served = response.plan_fingerprint
            factor = request.config.bandwidth / state["topology"].pcie_bandwidth
            if served != fingerprint(response.report.plan):
                result.fail("plan_fingerprint does not match the served plan")
                continue
            if kind == "hot" and served != hot_expected[repr(round(factor, 6))]:
                result.fail(f"hot request {factor:.2f}: fingerprint mismatch")
                continue
            if kind == "dup":
                dup_prints.setdefault(request.config.bandwidth, set()).add(served)
            if kind != "hot":
                fresh.append((request, served))
            if latency <= LATENCY_LIMIT_S:
                result.good += 1
        for bandwidth, prints in dup_prints.items():
            if len(prints) != 1:
                result.fail(f"coalesced requests at {bandwidth:.4g} B/s got different plans")
        # The served fresh plans must equal a direct, uncached planner call.
        checked = random.Random(state["seed"] + 1).sample(fresh, min(SERVE_SAMPLE, len(fresh)))
        clear_hints()
        with cache_overridden(memory=False, disk=False):
            for request, served in checked:
                direct = plan_mobius(request.model, request.topology, request.config)
                if fingerprint(direct.plan) != served:
                    result.fail(
                        f"served plan at {request.config.bandwidth:.6g} B/s differs "
                        "from a direct plan_mobius call"
                    )
        return result


# ----------------------------------------------------------------------
# suite-cold: the fast paper suite on an empty cache
# ----------------------------------------------------------------------


class SuiteCold:
    """Closed loop; each op regenerates the fast suite on a fresh cache."""

    name = "suite-cold"
    nominal_op_s = 14.0

    def setup(self, seed: int, workdir: Path) -> dict:
        import importlib

        from repro.experiments import ALL_EXPERIMENTS

        # Import every figure module now, so no op pays for imports.
        for name in ALL_EXPERIMENTS:
            importlib.import_module(f"repro.experiments.{name}")
        return {"workdir": workdir, "seed": seed}

    def run(self, state: dict, n_ops: int, reference: dict, stop_tracing=None) -> PassResult:
        from repro.experiments.suite import run_suite

        expected = reference["suite-cold"]["cells_fingerprint"]
        counters = {"cells_computed": 0, "duplicate_solves": 0, "cache_hits": 0, "cache_misses": 0}

        def op(index: int):
            cache_dir = state["workdir"] / f"suite-cache-{state['seed']}-{index}"
            clear_hints()
            return cache_dir, run_suite(
                fast=True, jobs=1, cache_dir=str(cache_dir), stream=io.StringIO()
            )

        def check(output) -> str | None:
            cache_dir, report = output
            shutil.rmtree(cache_dir, ignore_errors=True)
            schedule = report.schedule or {}
            counters["cells_computed"] += schedule.get("cells_computed", 0)
            counters["duplicate_solves"] += schedule.get("duplicate_solves", 0)
            for stats in report.aggregate_cache.values():
                counters["cache_hits"] += stats.get("hits", 0)
                counters["cache_misses"] += stats.get("misses", 0)
            got = str(schedule.get("cells_fingerprint"))
            if got == expected:
                return None
            return (
                f"cells_fingerprint {got[:12]} != {expected[:12]}"
                " (a wall-clock-truncated partition solve changes it)"
            )

        result = closed_loop(n_ops, op, check, traced=stop_tracing is not None)
        result.counters = counters
        return result


WORKLOADS = {w.name: w for w in (Plan8Gpu(), Sim4Gpu(), ServeMixed(), SuiteCold())}
