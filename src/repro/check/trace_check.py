"""Sanity checks over an executed task table.

The discrete-event simulator is the repo's measurement instrument; a bug
there silently skews every figure.  :func:`sanitize_run` replays the
runner's realised times against the two invariants no other check covers
on the fault runner's paths:

* **causality** — no task starts before all of its dependencies end;
* **duration** — a compute row runs for exactly the seconds the run
  recorded for it, and a barrier takes no time.

The rest of a valid execution is checked where it is produced (DESIGN.md
§8): the :class:`~repro.sim.trace.Trace` constructor rejects non-finite or
backwards spans, invalid byte counts and GPU indices outside the server;
the flow network's link capacities and per-GPU compute serialisation are
pinned by the simulator's own tests.  The pytest auto-sanitizer
(``tests/conftest.py``), the corpus test (``tests/check/test_corpus.py``)
and every chaos step call :func:`sanitize_run`.
"""

from __future__ import annotations

import math

from repro.check.findings import CheckReport
from repro.sim.tasks import BARRIER, COMPUTE, TaskTable, TaskTimes

__all__ = ["sanitize_run"]

_CHECKER = "trace"


def sanitize_run(tasks: TaskTable, times: TaskTimes) -> CheckReport:
    """Dependency and duration invariants of an executed task table.

    Args:
        tasks: The table :meth:`~repro.sim.tasks.TaskGraphRunner.execute`
            ran.
        times: The runner's realised times for that execution
            (:attr:`~repro.sim.tasks.TaskGraphRunner.last_times`).
    """
    report = CheckReport()
    start = times.start.tolist()
    end = times.end.tolist()
    seconds = times.seconds.tolist()
    label = tasks.label
    horizon = max((b for b in end if not math.isnan(b)), default=0.0)
    eps = 1e-9 * max(1.0, horizon)

    def subject(row: int) -> str:
        return label[row] or f"task#{row}"

    for dep, row in zip(*(column.tolist() for column in tasks.edges())):
        if start[row] < end[dep] - eps:
            report.add(
                _CHECKER,
                "TASK-CAUSALITY",
                f"starts at {start[row]:.6f}s before dependency "
                f"{subject(dep)} ends at {end[dep]:.6f}s",
                subject=subject(row),
                slack=float(start[row] - end[dep]),
            )

    for row, op in enumerate(tasks.op):
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
        elif op == BARRIER and duration > eps:
            report.add(
                _CHECKER,
                "TASK-DURATION",
                f"barrier took {duration:.9f}s; barriers are zero-cost",
                subject=subject(row),
                slack=float(-duration),
            )

    return report
