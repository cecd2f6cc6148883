"""The figure suite runner: schedule every cell once, then assemble figures.

Running each experiment module standalone re-plans and re-simulates the
same (system, model, topology) cells over and over.  This runner executes
any subset of :data:`repro.experiments.ALL_EXPERIMENTS` in two passes:

1. **Schedule** — every module's ``cells()`` enumeration flattens into one
   suite-wide work graph (:mod:`repro.experiments.schedule`): duplicate
   cells collapse to a single compute, cells sharing a MIP solve queue
   behind it, and the whole graph drains on ``jobs`` supervised worker
   processes (:mod:`repro.serve.supervisor`) sharing the cache's durable
   store and a cross-process lease table.
2. **Assemble** — the figure modules then run serially in-process; every
   ``run_system`` call they make is a cache hit, so assembly is cheap and
   its output order is the requested order.

The timing report records per-figure wall time and cache counters, the
schedule's dedup/coalescing counters, and two determinism fingerprints:
``cells_fingerprint`` (the deterministic faces of every unique cell's
result) and ``output_fingerprint`` (the exact figure text).  Both are
identical across ``jobs`` values, caches and machines: no cached value
holds a wall reading, so the figure text is a function of the cells alone.

``repro figures`` runs the suite; ``repro bench suite`` gates it
(:func:`bench_rows`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import os
import sys
import tempfile
from collections.abc import Sequence
from typing import Any

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import ExperimentTable, resolve_jobs
from repro.experiments.schedule import run_cells
from repro.perf.bench import Stopwatch, row
from repro.perf.cache import cache_overridden, get_cache, merge_stats, stats_delta

__all__ = [
    "FigureRun",
    "SuiteReport",
    "bench_rows",
    "check_identity",
    "resolve_names",
    "run_suite",
    "suite_row",
]

#: The unique-cell rate is recorded, and so gated, only on hosts with at
#: least this many CPUs: on one CPU, pool scheduling overhead is pure cost
#: and the rate would measure the container, not the code.
_RATE_MIN_CPUS = 2


@dataclasses.dataclass
class FigureRun:
    """One experiment module's execution record."""

    name: str
    seconds: float
    output: str
    cache_stats: dict


@dataclasses.dataclass
class SuiteReport:
    """Everything one suite invocation produced."""

    figures: list[FigureRun]
    total_seconds: float
    jobs: int
    use_cache: bool
    fast: bool
    #: The drain's :class:`~repro.experiments.schedule.ScheduleReport` as a
    #: dict; ``None`` when scheduling was skipped (``use_cache=False``).
    schedule: dict | None = None

    @property
    def cache_totals(self) -> dict:
        """Hit/miss counters summed over figures and namespaces."""
        totals = {"hits": 0, "misses": 0}
        for figure in self.figures:
            for stats in figure.cache_stats.values():
                totals["hits"] += stats.get("hits", 0)
                totals["misses"] += stats.get("misses", 0)
        return totals

    @property
    def aggregate_cache(self) -> dict:
        """Per-namespace counters over the whole run: drain + assembly.

        The drain's counters come from every worker process (summed via
        :func:`repro.perf.cache.merge_stats`); the assembly counters from
        the in-process figure passes.  The ``"system"`` namespace's miss
        total therefore counts every cell actually computed anywhere —
        the quantity the dedup guarantee pins across ``jobs`` values.
        """
        parts = [figure.cache_stats for figure in self.figures]
        if self.schedule is not None:
            parts.append(self.schedule.get("worker_cache", {}))
        return merge_stats(*parts)

    @property
    def output_fingerprint(self) -> str:
        """Digest of the exact figure text, in order.

        Comparable across caches and worker counts: the figures print no
        wall reading, so a warm run's text equals a cold run's.
        """
        digest = hashlib.sha256()
        for figure in self.figures:
            digest.update(figure.name.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(figure.output.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    def summary_table(self) -> ExperimentTable:
        table = ExperimentTable(
            title="Suite timing report",
            columns=("figure", "seconds", "cache_hits", "cache_misses"),
        )
        for figure in self.figures:
            hits = sum(s.get("hits", 0) for s in figure.cache_stats.values())
            misses = sum(s.get("misses", 0) for s in figure.cache_stats.values())
            table.add_row(figure.name, figure.seconds, hits, misses)
        totals = self.cache_totals
        table.notes.append(
            f"total {self.total_seconds:.1f}s with jobs={self.jobs}, "
            f"cache={'on' if self.use_cache else 'off'} "
            f"({totals['hits']} hits / {totals['misses']} misses)"
        )
        if self.schedule is not None:
            table.notes.append(
                "schedule: {cells_enumerated} cells -> {cells_unique} unique "
                "({cells_deduped} deduped, {cells_precached} precached, "
                "{cells_computed} computed, {duplicate_solves} duplicate solves)"
                .format(**self.schedule)
            )
        return table


def _execute_figure(name: str, fast: bool) -> FigureRun:
    """Import and run one experiment module, timing it and its cache use."""
    from repro.experiments.runner import print_tables

    cache = get_cache()
    before = cache.stats_snapshot()
    watch = Stopwatch()
    tables = importlib.import_module(f"repro.experiments.{name}").run(fast=fast)
    seconds = watch.seconds

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        print_tables(tables)
    return FigureRun(
        name=name,
        seconds=seconds,
        output=buffer.getvalue(),
        cache_stats=stats_delta(before, cache.stats_snapshot()),
    )


def resolve_names(requested: Sequence[str]) -> list[str]:
    """Expand ``all``/prefixes into experiment module names, in paper order."""
    if not requested or "all" in requested:
        return list(ALL_EXPERIMENTS)
    return [
        name
        for name in ALL_EXPERIMENTS
        if any(name.startswith(prefix) for prefix in requested)
    ]


def run_suite(
    names: Sequence[str] | None = None,
    *,
    fast: bool = False,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: str | None = None,
    stream=None,
) -> SuiteReport:
    """Schedule every cell once, then assemble figures from the cache.

    Args:
        names: Module names (already resolved); default all experiments.
        fast: Run each module's CI-friendly subset.
        jobs: Supervised worker processes for the cell drain (1 =
            in-process); a crashed worker costs its cell one retry.  The
            assembly pass is always serial: with the cells precached it is
            pure table formatting.
        use_cache: Enable the memory + disk cache tiers for this run.
            ``False`` disables caching entirely (cold, reference
            behavior) — and with it the scheduling pass, since without a
            cache the figures could not reuse the drained results.
        cache_dir: Override the disk-tier directory.
        stream: Where to print figure output and the timing table
            (default ``sys.stdout``).
    """
    names = list(names) if names is not None else list(ALL_EXPERIMENTS)
    stream = stream if stream is not None else sys.stdout
    override = {
        "memory": use_cache,
        "disk": use_cache,
        "directory": cache_dir,
    }
    watch = Stopwatch()
    with cache_overridden(**override):
        schedule_report = None
        if use_cache:
            schedule_report = run_cells(names, fast=fast, jobs=jobs)
        figures = [_execute_figure(name, fast) for name in names]
    total = watch.seconds

    report = SuiteReport(
        figures=figures,
        total_seconds=total,
        jobs=jobs,
        use_cache=use_cache,
        fast=fast,
        schedule=schedule_report.as_dict() if schedule_report is not None else None,
    )
    for figure in figures:
        stream.write(figure.output)
    stream.write(report.summary_table().format() + "\n")
    return report


def check_identity(report: SuiteReport, names: Sequence[str], *, fast: bool = False) -> dict:
    """The jobs=N vs jobs=1 identity gate: one cold solo suite run.

    The figures are run again at ``jobs=1`` on an empty scratch cache, and
    both of that run's fingerprints must equal ``report``'s:

    * ``cells_fingerprint`` (deterministic result faces): worker count,
      completion order and lease waits never change what a cell returns;
    * ``output_fingerprint``: the figure text is byte-identical across two
      cold caches and two worker counts.
    """
    if report.schedule is None:
        raise ValueError("identity check needs a scheduled (use_cache=True) report")
    with tempfile.TemporaryDirectory(prefix="repro-identity-") as scratch:
        solo = run_suite(names, fast=fast, jobs=1, cache_dir=scratch, stream=io.StringIO())
    assert solo.schedule is not None  # use_cache=True always schedules
    cells_match = solo.schedule["cells_fingerprint"] == report.schedule["cells_fingerprint"]
    outputs_match = solo.output_fingerprint == report.output_fingerprint
    return {
        "jobs": report.jobs,
        "cells_fingerprint_pool": report.schedule["cells_fingerprint"],
        "cells_fingerprint_solo": solo.schedule["cells_fingerprint"],
        "cells_match": cells_match,
        "output_fingerprint_pool": report.output_fingerprint,
        "output_fingerprint_solo": solo.output_fingerprint,
        "outputs_match": outputs_match,
        "ok": cells_match and outputs_match,
    }


def suite_row(
    schedule: dict, identity: dict, *, seconds: float, jobs: int, cpus: int
) -> dict[str, Any]:
    """The ``suite`` bench row of one cold drain and its identity verdict.

    The fingerprint is the drain's ``cells_fingerprint``; the checks are
    cross-figure reuse, zero duplicate solves and both fingerprints of
    :func:`check_identity`; the ``unique_cells_per_s`` rate is recorded
    only on hosts with at least :data:`_RATE_MIN_CPUS` CPUs.
    """
    reuse = (
        schedule["cells_deduped"]
        + schedule["cells_precached"]
        + schedule["cells_shared"]
        + schedule["cells_coalesced"]
    )
    rates = {}
    if cpus >= _RATE_MIN_CPUS:
        rates["unique_cells_per_s"] = round(schedule["cells_unique"] / seconds, 3)
    return row(
        "suite",
        fingerprint=schedule["cells_fingerprint"],
        counters={
            key: schedule[key]
            for key in (
                "cells_enumerated",
                "cells_unique",
                "cells_computed",
                "duplicate_solves",
            )
        },
        rates=rates,
        walls={"seconds": round(seconds, 3), "jobs": jobs},
        checks={
            "reuse": reuse > 0,
            "no_duplicate_solves": schedule["duplicate_solves"] == 0,
            "cells_match": identity["cells_match"],
            "outputs_match": identity["outputs_match"],
        },
    )


def bench_rows(jobs: int | None = None) -> list[dict[str, Any]]:
    """The ``suite`` bench rows: the fast suite over every figure.

    Always drains from an empty scratch cache, so every document has the
    same coverage, then runs :func:`check_identity` (see :func:`suite_row`).

    Args:
        jobs: Drain workers; ``None`` consults ``REPRO_JOBS`` / the CPU
            count (:func:`repro.experiments.runner.resolve_jobs`).
    """
    names = list(ALL_EXPERIMENTS)
    with tempfile.TemporaryDirectory(prefix="repro-suite-bench-") as cache_dir:
        watch = Stopwatch()
        report = run_suite(
            names,
            fast=True,
            jobs=resolve_jobs(jobs),
            cache_dir=cache_dir,
            stream=io.StringIO(),
        )
        seconds = watch.seconds
    identity = check_identity(report, names, fast=True)
    assert report.schedule is not None  # use_cache=True always schedules
    return [
        suite_row(
            report.schedule,
            identity,
            seconds=seconds,
            jobs=report.jobs,
            cpus=os.cpu_count() or 1,
        )
    ]
