"""The benchmark harness: one document shape, one writer, one gate.

``python -m repro bench KIND`` runs one of four row producers and gates the
result against a committed document:

* ``sim`` (:mod:`repro.sim.bench`) — simulator traces of the check corpus
  and one ZeRO-3 step;
* ``serve`` (:mod:`repro.serve.bench`) — the planning daemon's plans,
  throughput regimes, worker scaling and recovery scenarios;
* ``suite`` (:mod:`repro.experiments.suite`) — the fast figure suite from an
  empty cache, with its serial identity re-check;
* ``chaos`` (:mod:`repro.faults.chaos`) — every corpus cell under every
  training fault scenario.

Every document has the same shape::

    {"schema": "mobius-bench/1", "bench": KIND,
     "machine": {"platform", "python", "cpus", "repro_jobs_env"},
     "rows": [{"name", "fingerprint", "counters", "rates", "walls",
               "checks"}]}

:func:`compare` reads only ``rows``.  A row's ``fingerprint`` is a digest
of deterministic output; ``counters`` are deterministic work counts;
``rates`` are host-dependent throughputs a producer records only on hosts
where they are gated; ``walls`` are informational measurements, never
compared; ``checks`` are pass/fail facts about this run.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Any

__all__ = [
    "KINDS",
    "REGRESSION_RATIO",
    "SCHEMA",
    "Stopwatch",
    "compare",
    "render",
    "row",
    "run",
    "write",
]

SCHEMA = "mobius-bench/1"

#: Producer module per bench kind; each exposes ``bench_rows(jobs)``.
KINDS = {
    "sim": "repro.sim.bench",
    "serve": "repro.serve.bench",
    "suite": "repro.experiments.suite",
    "chaos": "repro.faults.chaos",
}

#: A counter above this multiple of its baseline, or a rate below its
#: baseline divided by it, fails the gate.
REGRESSION_RATIO = 1.25


class Stopwatch:
    """Wall seconds since construction: the harness's only clock read.

    Walls are informational or feed host-gated ``rates``; they never
    steer what a producer computes.
    """

    __slots__ = ("_started",)

    def __init__(self) -> None:
        self._started = time.perf_counter()

    @property
    def seconds(self) -> float:
        return time.perf_counter() - self._started


def row(
    name: str,
    *,
    fingerprint: str | None = None,
    counters: dict[str, int] | None = None,
    rates: dict[str, float] | None = None,
    walls: dict[str, Any] | None = None,
    checks: dict[str, bool] | None = None,
) -> dict[str, Any]:
    """One document row, every field present."""
    return {
        "name": name,
        "fingerprint": fingerprint,
        "counters": counters or {},
        "rates": rates or {},
        "walls": walls or {},
        "checks": checks or {},
    }


def _machine() -> dict[str, Any]:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        # Both sides of the worker-count decision: what the container
        # reports, and what the REPRO_JOBS override requested.
        "cpus": os.cpu_count(),
        "repro_jobs_env": os.environ.get("REPRO_JOBS"),
    }


def run(kind: str, jobs: int | None = None) -> dict[str, Any]:
    """Run one bench kind's producer; returns its document.

    ``jobs`` sets the serve bench's top worker count and the suite's drain
    workers; the sim and chaos rows run in-process.
    """
    producer = importlib.import_module(KINDS[kind])
    return {
        "schema": SCHEMA,
        "bench": kind,
        "machine": _machine(),
        "rows": producer.bench_rows(jobs),
    }


def write(document: dict[str, Any], path: Path | str) -> None:
    Path(path).write_text(json.dumps(document, indent=1) + "\n")


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render(document: dict[str, Any]) -> str:
    """Human-readable table: one line per row."""
    lines = [f"bench {document['bench']} ({len(document['rows'])} rows)"]
    for entry in document["rows"]:
        fields = [f"{entry['name']:<32}"]
        fp = entry["fingerprint"]
        fields.append(f"fp={fp[:12] if fp else '-':<12}")
        for section in ("counters", "rates", "walls"):
            fields.extend(
                f"{key}={_format_value(value)}"
                for key, value in entry[section].items()
            )
        failed = [key for key, ok in entry["checks"].items() if not ok]
        if entry["checks"]:
            fields.append(f"[FAIL {','.join(failed)}]" if failed else "[ok]")
        lines.append(" ".join(fields))
    return "\n".join(lines)


def compare(current: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """The gate: problems of ``current`` against ``baseline`` (empty = pass).

    Fails on:

    * a different schema or bench kind;
    * a row present on only one side (the workload set is part of the
      contract);
    * a fingerprint difference;
    * a counter above :data:`REGRESSION_RATIO` times its nonzero baseline;
    * a rate, recorded on both sides, below its baseline divided by
      :data:`REGRESSION_RATIO`;
    * a ``checks`` entry of ``current`` that is false.

    Comparing a document with itself therefore reports only its failed
    checks.  ``walls`` are never compared.
    """
    failures: list[str] = []
    for key in ("schema", "bench"):
        if current.get(key) != baseline.get(key):
            failures.append(
                f"{key} differs: {current.get(key)!r} vs baseline {baseline.get(key)!r}"
            )
    if failures:
        return failures
    base_rows = {entry["name"]: entry for entry in baseline["rows"]}
    cur_rows = {entry["name"]: entry for entry in current["rows"]}
    for name in sorted(base_rows.keys() | cur_rows.keys()):
        if name not in cur_rows:
            failures.append(f"{name}: row missing from current run")
            continue
        if name not in base_rows:
            failures.append(f"{name}: row missing from baseline")
            continue
        base, cur = base_rows[name], cur_rows[name]
        if cur["fingerprint"] != base["fingerprint"]:
            failures.append(
                f"{name}: fingerprint diverged "
                f"({base['fingerprint']} -> {cur['fingerprint']})"
            )
        for counter, base_count in base["counters"].items():
            cur_count = cur["counters"].get(counter, 0)
            if base_count > 0 and cur_count > REGRESSION_RATIO * base_count:
                failures.append(
                    f"{name}: {counter} regressed {base_count} -> {cur_count} "
                    f"(>{REGRESSION_RATIO:.2f}x)"
                )
        for rate, base_rate in base["rates"].items():
            cur_rate = cur["rates"].get(rate)
            if base_rate and cur_rate and cur_rate < base_rate / REGRESSION_RATIO:
                failures.append(
                    f"{name}: {rate} regressed {base_rate} -> {cur_rate} "
                    f"(>{REGRESSION_RATIO:.2f}x)"
                )
        failures.extend(
            f"{name}: check {check} failed"
            for check, ok in cur["checks"].items()
            if not ok
        )
    return failures
