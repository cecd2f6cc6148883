"""Sanity checks over simulated traces and executed task graphs.

The discrete-event simulator is the repo's measurement instrument; a bug
there silently skews every figure.  This module rechecks the physical
invariants any valid execution must satisfy:

* **well-formedness** — no NaN/infinite timestamps, no negative durations,
  no negative byte counts, GPU indices within the server;
* **causality** — no task starts before all of its dependencies end;
* **compute exclusivity** — one GPU's compute spans never overlap (each GPU
  is a serial FIFO stream);
* **bandwidth** — no single transfer implies more bandwidth than its path's
  bottleneck link, and the bytes crossing any directed link fit inside that
  link's capacity × the time the link was busy (the fluid-flow model's
  conservation law, which holds for any priority/fair-share schedule).

Two entry points exist because traces outlive task graphs: a
:class:`~repro.sim.trace.Trace` alone supports the span-level checks
(:func:`sanitize_trace`), while an executed task table and the runner's
realised times add dependency edges and transfer paths for the causality
and per-link checks (:func:`check_task_graph`).  :func:`sanitize_run`
combines both and is what the pytest auto-sanitizer and the
``repro check`` corpus gate call.
"""

from __future__ import annotations

import math

from repro.check.findings import CheckReport
from repro.hardware.topology import Edge, Topology
from repro.sim.tasks import COMPUTE, TRANSFER, TaskTable, TaskTimes
from repro.sim.trace import Trace, total_length

__all__ = ["sanitize_trace", "check_task_graph", "sanitize_run"]

_CHECKER = "trace"


def _residue_slack(nbytes: float) -> float:
    """Bytes the flow network may forgive at completion (sub-byte residues)."""
    return max(2.0, 2e-9 * nbytes)


def _time_eps(scale: float) -> float:
    return 1e-9 * max(1.0, scale)


def sanitize_trace(trace: Trace, topology: Topology | None = None) -> CheckReport:
    """Span-level invariants of a recorded trace.

    Args:
        trace: The trace to scan.
        topology: When given, each transfer's implied bandwidth is bounded by
            the server's fastest link (a ceiling valid whatever path the
            transfer took).
    """
    report = CheckReport()
    eps = _time_eps(trace.makespan if trace.compute or trace.transfers else 0.0)

    for span in trace.compute:
        subject = f"compute {span.label or '<unlabelled>'} @ gpu {span.gpu}"
        if not (math.isfinite(span.start) and math.isfinite(span.end)):
            report.add(
                _CHECKER,
                "TRACE-FINITE",
                f"non-finite timestamps [{span.start}, {span.end}]",
                subject=subject,
            )
            continue
        if span.end < span.start:
            report.add(
                _CHECKER,
                "TRACE-NEG-DURATION",
                f"span ends before it starts: [{span.start}, {span.end}]",
                subject=subject,
                slack=span.end - span.start,
            )
        if not 0 <= span.gpu < trace.n_gpus:
            report.add(
                _CHECKER,
                "TRACE-GPU-RANGE",
                f"gpu index {span.gpu} outside [0, {trace.n_gpus})",
                subject=subject,
            )

    max_bw = topology.max_link_bandwidth if topology is not None else math.inf
    for span in trace.transfers:
        subject = f"transfer {span.label or span.kind or '<unlabelled>'} @ gpu {span.gpu}"
        if not (
            math.isfinite(span.start)
            and math.isfinite(span.end)
            and math.isfinite(span.nbytes)
        ):
            report.add(
                _CHECKER,
                "TRACE-FINITE",
                f"non-finite values [{span.start}, {span.end}] / {span.nbytes}B",
                subject=subject,
            )
            continue
        if span.end < span.start:
            report.add(
                _CHECKER,
                "TRACE-NEG-DURATION",
                f"span ends before it starts: [{span.start}, {span.end}]",
                subject=subject,
                slack=span.end - span.start,
            )
            continue
        if span.nbytes < 0:
            report.add(
                _CHECKER,
                "TRACE-NEG-BYTES",
                f"negative byte count {span.nbytes}",
                subject=subject,
                slack=span.nbytes,
            )
            continue
        if span.nbytes > 0 and topology is not None:
            duration = span.end - span.start
            budget = max_bw * duration + _residue_slack(span.nbytes)
            if span.nbytes > budget:
                implied = span.nbytes / duration if duration > 0 else math.inf
                report.add(
                    _CHECKER,
                    "TRACE-BW-SPEC",
                    f"{span.nbytes / 1e9:.3f}GB in {duration:.6f}s implies "
                    f"{implied / 1e9:.1f}GB/s, above the server's fastest "
                    f"link ({max_bw / 1e9:.1f}GB/s)",
                    subject=subject,
                    slack=float(budget - span.nbytes),
                )

    # Compute exclusivity: each GPU is one serial stream.
    for gpu in range(trace.n_gpus):
        spans = sorted(
            (s for s in trace.compute if s.gpu == gpu),
            key=lambda s: (s.start, s.end),
        )
        for prev, nxt in zip(spans, spans[1:]):
            if nxt.start < prev.end - eps:
                report.add(
                    _CHECKER,
                    "TRACE-COMPUTE-OVERLAP",
                    f"{nxt.label or '<unlabelled>'} starts at {nxt.start:.6f}s "
                    f"while {prev.label or '<unlabelled>'} runs until "
                    f"{prev.end:.6f}s on the same GPU",
                    subject=f"gpu {gpu}",
                    slack=float(nxt.start - prev.end),
                )

    return report


def check_task_graph(
    tasks: TaskTable, times: TaskTimes, topology: Topology
) -> CheckReport:
    """Dependency- and link-level invariants of an executed task table.

    Args:
        tasks: The table :meth:`~repro.sim.tasks.TaskGraphRunner.execute`
            ran.
        times: The runner's realised times for that execution
            (:attr:`~repro.sim.tasks.TaskGraphRunner.last_times`).
        topology: Supplies per-link capacities and path bottlenecks.
    """
    report = CheckReport()
    start = times.start.tolist()
    end = times.end.tolist()
    seconds = times.seconds.tolist()
    label = tasks.label
    finished = [not (math.isnan(a) or math.isnan(b)) for a, b in zip(start, end)]
    horizon = max((b for b, ok in zip(end, finished) if ok), default=0.0)
    eps = _time_eps(horizon)

    def subject(row: int) -> str:
        return label[row] or f"task#{row}"

    deps: list[list[int]] = [[] for _ in range(len(tasks))]
    for dep, row in zip(*(column.tolist() for column in tasks.edges())):
        deps[row].append(dep)

    link_usage: dict[Edge, list[tuple[float, float, float]]] = {}

    for row, op in enumerate(tasks.op):
        if not finished[row]:
            report.add(
                _CHECKER,
                "TASK-INCOMPLETE",
                "task never completed or carries no realised times",
                subject=subject(row),
            )
            continue

        for dep in deps[row]:
            if math.isnan(end[dep]):
                continue  # reported above for the dependency itself
            if start[row] < end[dep] - eps:
                report.add(
                    _CHECKER,
                    "TASK-CAUSALITY",
                    f"starts at {start[row]:.6f}s before dependency "
                    f"{subject(dep)} ends at {end[dep]:.6f}s",
                    subject=subject(row),
                    slack=float(start[row] - end[dep]),
                )

        duration = end[row] - start[row]
        if op == COMPUTE:
            drift = abs(duration - seconds[row])
            if drift > eps + 1e-9 * seconds[row]:
                report.add(
                    _CHECKER,
                    "TASK-DURATION",
                    f"compute ran for {duration:.9f}s but declares "
                    f"{seconds[row]:.9f}s",
                    subject=subject(row),
                    slack=float(-drift),
                )
        elif op == TRANSFER:
            nbytes = tasks.nbytes[row]
            path = tasks.paths[tasks.path_id[row]]
            if nbytes <= 0 or not path:
                continue
            bottleneck = topology.path_bandwidth(path)
            budget = bottleneck * duration + _residue_slack(nbytes)
            if nbytes > budget:
                implied = nbytes / duration if duration > 0 else math.inf
                report.add(
                    _CHECKER,
                    "TASK-BW-PATH",
                    f"{nbytes / 1e9:.3f}GB in {duration:.6f}s implies "
                    f"{implied / 1e9:.1f}GB/s through a path whose bottleneck "
                    f"is {bottleneck / 1e9:.1f}GB/s",
                    subject=subject(row),
                    slack=float(budget - nbytes),
                )
            for edge in path:
                link_usage.setdefault(edge, []).append((start[row], end[row], nbytes))
        elif duration > eps:
            report.add(
                _CHECKER,
                "TASK-DURATION",
                f"barrier took {duration:.9f}s; barriers are zero-cost",
                subject=subject(row),
                slack=float(-duration),
            )

    # Conservation per directed link: the bytes every flow pushed through a
    # link fit inside capacity x (time the link had any flow).  This holds
    # for any bandwidth-sharing schedule that respects edge capacities.
    for edge, usage in link_usage.items():
        capacity = topology.bandwidth_of(edge)
        busy = total_length((start, end) for start, end, _ in usage)
        moved = sum(nbytes for _, _, nbytes in usage)
        slack_bytes = sum(_residue_slack(nbytes) for _, _, nbytes in usage)
        budget = capacity * busy * (1 + 1e-9) + slack_bytes
        if moved > budget:
            report.add(
                _CHECKER,
                "TASK-LINK-CAP",
                f"{moved / 1e9:.3f}GB crossed link {edge} within "
                f"{busy:.6f}s of activity, but its capacity "
                f"{capacity / 1e9:.1f}GB/s only admits "
                f"{capacity * busy / 1e9:.3f}GB",
                subject=f"link {edge[0]}->{edge[1]}",
                slack=float(budget - moved),
            )

    return report


def sanitize_run(
    tasks: TaskTable, times: TaskTimes, trace: Trace, topology: Topology
) -> CheckReport:
    """Full post-run verification: span, dependency and link invariants."""
    report = sanitize_trace(trace, topology)
    report.extend(check_task_graph(tasks, times, topology))
    return report
