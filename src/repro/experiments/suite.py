"""The figure suite runner: schedule every cell once, then assemble figures.

Running each experiment module standalone re-plans and re-simulates the
same (system, model, topology) cells over and over.  This runner executes
any subset of :data:`repro.experiments.ALL_EXPERIMENTS` in two passes:

1. **Schedule** — every module's ``cells()`` enumeration flattens into one
   suite-wide work graph (:mod:`repro.experiments.schedule`): duplicate
   cells collapse to a single compute, cells sharing a MIP solve queue
   behind it, and the whole graph drains through one global process pool
   (``jobs`` workers) sharing the disk cache and a cross-process lease
   table.
2. **Assemble** — the figure modules then run serially in-process; every
   ``run_system`` call they make is a cache hit, so assembly is cheap and
   its output order is the requested order.

(The previous design parallelised whole figure modules, pinning each
worker's per-cell fan-out with ``REPRO_JOBS=1``; the cell scheduler
replaces both levels, so that pin is gone.)

The timing report records per-figure wall time and cache counters, the
schedule's dedup/coalescing counters, and two determinism fingerprints:
``cells_fingerprint`` (the deterministic faces of every unique cell's
result — identical across ``jobs`` values and across machines) and
``output_fingerprint`` (the exact figure text assembled from one cache).

CLI::

    python -m repro.experiments.suite [--jobs N] [--no-cache] [--full]
                                      [--baseline] [--identity-check]
                                      [--check-against PATH] [--force]
                                      [--bench-out PATH] [names...]

``repro figures`` routes through :func:`run_suite` as well.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import platform
import sys
import tempfile
import time
from collections.abc import Sequence

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import ExperimentTable, default_jobs
from repro.experiments.schedule import run_cells
from repro.perf.cache import (
    CACHE_VERSION,
    cache_overridden,
    get_cache,
    merge_stats,
)

__all__ = [
    "BenchOverwriteError",
    "FigureRun",
    "SuiteReport",
    "check_identity",
    "check_suite_document",
    "run_suite",
    "write_bench",
    "main",
    "DEFAULT_BENCH_PATH",
]

DEFAULT_BENCH_PATH = "BENCH_suite.json"

#: Cold unique-cell throughput may not drop below this fraction of the
#: reference document's (``--check-against``, machines with >= 2 CPUs).
THROUGHPUT_FLOOR = 0.75


@dataclasses.dataclass
class FigureRun:
    """One experiment module's execution record."""

    name: str
    seconds: float
    output: str
    cache_stats: dict

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": round(self.seconds, 4),
            "cache": self.cache_stats,
        }


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

        Byte-identity of assembly over one warm cache; cross-cache
        comparisons go through the schedule's ``cells_fingerprint``
        instead (Figure 12's table prints wall-clock planning overheads,
        which legitimately differ between independent cold caches).
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

    def as_dict(self) -> dict:
        return {
            "schema": "mobius-bench-suite/3",
            # Full-float precision: rounding to a few decimals can collapse a
            # sub-millisecond warm-cache pass to 0.0, breaking downstream
            # speedup ratios that divide by this value.
            "total_seconds": self.total_seconds,
            "jobs": self.jobs,
            "cache": {
                "enabled": self.use_cache,
                "version": CACHE_VERSION,
                **self.cache_totals,
            },
            "fast": self.fast,
            "machine": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                # Both sides of the worker-count decision (satellite of
                # DESIGN.md §12): what the container reports, and what the
                # REPRO_JOBS override requested — containers often report
                # one CPU while more cores are actually available.
                "cpus": os.cpu_count(),
                "repro_jobs_env": os.environ.get("REPRO_JOBS"),
            },
            "schedule": self.schedule,
            "output_fingerprint": self.output_fingerprint,
            "aggregate_cache": self.aggregate_cache,
            "figures": [figure.as_dict() for figure in self.figures],
        }


def _execute_figure(name: str, fast: bool) -> FigureRun:
    """Import and run one experiment module, timing it and its cache use."""
    from repro.experiments.runner import print_tables

    cache = get_cache()
    before = {
        namespace: stats.as_dict() for namespace, stats in cache.stats.items()
    }
    started = time.perf_counter()
    module = importlib.import_module(f"repro.experiments.{name}")
    if "fast" in module.run.__code__.co_varnames:
        tables = module.run(fast=fast)
    else:
        tables = module.run()
    seconds = time.perf_counter() - started

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        print_tables(tables)

    delta: dict[str, dict] = {}
    for namespace, stats in cache.stats.items():
        previous = before.get(namespace, {})
        entry = {
            key: value - previous.get(key, 0) for key, value in stats.as_dict().items()
        }
        if any(entry.values()):
            delta[namespace] = entry
    return FigureRun(name=name, seconds=seconds, output=buffer.getvalue(), cache_stats=delta)


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
    bench_path: str | None = None,
    stream=None,
) -> SuiteReport:
    """Schedule every cell once, then assemble figures from the cache.

    Args:
        names: Module names (already resolved); default all experiments.
        fast: Run each module's CI-friendly subset.
        jobs: Worker processes for the cell drain (1 = in-process).  The
            assembly pass is always serial: with the cells precached it is
            pure table formatting.
        use_cache: Enable the memory + disk cache tiers for this run.
            ``False`` disables caching entirely (cold, reference
            behavior) — and with it the scheduling pass, since without a
            cache the figures could not reuse the drained results.
        cache_dir: Override the disk-tier directory.
        bench_path: If set, write the machine-readable report here.
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
    started = time.perf_counter()
    with cache_overridden(**override):
        schedule_report = None
        if use_cache:
            schedule_report = run_cells(names, fast=fast, jobs=jobs)
        figures = [_execute_figure(name, fast) for name in names]
    total = time.perf_counter() - started

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
    if bench_path:
        write_bench(report, bench_path)
        stream.write(f"wrote {bench_path}\n")
    return report


def check_identity(
    report: SuiteReport,
    names: Sequence[str],
    *,
    fast: bool = False,
    cache_dir: str | None = None,
) -> dict:
    """The jobs=N vs jobs=1 identity gate.

    Two comparisons, both of which must hold:

    * **solo drain** — every cell is re-solved serially in a scratch cache;
      its ``cells_fingerprint`` (deterministic result faces) must equal the
      pool drain's.  This is the cross-process determinism claim: worker
      count, completion order and lease waits never change what a cell
      returns.
    * **replay assembly** — the figures are re-assembled at ``jobs=1`` over
      the same warm cache as ``report``; the output text must be
      byte-identical.  (Byte-identity *across* caches is deliberately not
      required: Figure 12 prints wall-clock planning overheads, which are
      properties of the run that populated the cache.)
    """
    if report.schedule is None:
        raise ValueError("identity check needs a scheduled (use_cache=True) report")
    with tempfile.TemporaryDirectory(prefix="repro-identity-") as scratch:
        with cache_overridden(memory=True, disk=True, directory=scratch):
            solo = run_cells(names, fast=fast, jobs=1)
    replay = run_suite(
        names,
        fast=fast,
        jobs=1,
        use_cache=True,
        cache_dir=cache_dir,
        stream=io.StringIO(),
    )
    cells_match = solo.cells_fingerprint == report.schedule["cells_fingerprint"]
    outputs_match = replay.output_fingerprint == report.output_fingerprint
    return {
        "jobs": report.jobs,
        "cells_fingerprint_pool": report.schedule["cells_fingerprint"],
        "cells_fingerprint_solo": solo.cells_fingerprint,
        "cells_match": cells_match,
        "output_fingerprint": report.output_fingerprint,
        "output_fingerprint_replay": replay.output_fingerprint,
        "outputs_match": outputs_match,
        "ok": cells_match and outputs_match,
    }


class BenchOverwriteError(ValueError):
    """Refusal to clobber a fuller benchmark report with a lesser one."""


def _coverage(document: dict) -> tuple[int, int]:
    """Orderable coverage rank: full sweeps beat fast, more figures beat fewer."""
    return (
        0 if document.get("fast", True) else 1,
        len(document.get("figures", ())),
    )


def write_bench(
    report: SuiteReport,
    path: str,
    *,
    baseline: SuiteReport | None = None,
    cold: SuiteReport | None = None,
    identity: dict | None = None,
    force: bool = False,
) -> dict:
    """Write ``BENCH_suite.json``; returns the written document.

    Refuses to overwrite an existing report of strictly greater coverage
    (a full-sweep document vs a fast pass, or one covering more figures)
    unless ``force`` is set — a CI fast pass must not silently clobber a
    committed full baseline.

    Args:
        report: The suite's operating-mode run (shared cache warm, if a
            prior pass or invocation populated it).
        baseline: A serial, cache-disabled reference pass.
        cold: A cache-enabled pass that started from an empty cache
            (intra-run reuse only).
        identity: A :func:`check_identity` verdict to embed.
        force: Overwrite regardless of the existing document's coverage.

    Raises:
        BenchOverwriteError: Existing report has greater coverage and
            ``force`` is not set.
    """
    document = report.as_dict()
    if cold is not None:
        document["cold_cache"] = cold.as_dict()
    if baseline is not None:
        document["baseline"] = baseline.as_dict()
        if report.total_seconds > 0:
            document["speedup_vs_baseline"] = round(
                baseline.total_seconds / report.total_seconds, 3
            )
        if cold is not None and cold.total_seconds > 0:
            document["speedup_cold_vs_baseline"] = round(
                baseline.total_seconds / cold.total_seconds, 3
            )
    if identity is not None:
        document["identity"] = identity
    if not force and os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                existing = json.load(handle)
        except (OSError, json.JSONDecodeError):
            existing = None  # unreadable: nothing of value to protect
        if isinstance(existing, dict) and _coverage(existing) > _coverage(document):
            raise BenchOverwriteError(
                f"refusing to overwrite {path} (coverage {_coverage(existing)}) "
                f"with a lesser report (coverage {_coverage(document)}); "
                "pass --force to override"
            )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return document


def _unique_cell_throughput(document: dict) -> float | None:
    """Unique cells solved per second during the cold (or only) drain."""
    source = document.get("cold_cache") or document
    schedule = source.get("schedule")
    if not schedule or not source.get("total_seconds"):
        return None
    return schedule["cells_unique"] / source["total_seconds"]


def check_suite_document(document: dict, reference: dict | None = None) -> list[str]:
    """Gate a benchmark document; returns human-readable problems (empty = pass).

    Always checked:

    * the drain found cross-figure reuse (``cells_deduped + cells_precached
      + cells_shared + cells_coalesced > 0``) and performed **zero
      duplicate solves** — the dedup guarantee, meaningful on any machine
      including single-CPU containers where wall-clock gates would lie;
    * an embedded ``identity`` verdict, if present, passed.

    With a ``reference`` document (``--check-against``): cold unique-cell
    throughput must stay above :data:`THROUGHPUT_FLOOR` of the reference's.
    Skipped unless both machines report >= 2 CPUs — on a one-CPU container
    pool scheduling overhead is pure cost and wall-clock comparisons would
    measure the container, not the code.
    """
    problems: list[str] = []
    schedule = document.get("schedule")
    if schedule is None:
        problems.append("no schedule section: the run did not drain cells")
    else:
        reuse = (
            schedule["cells_deduped"]
            + schedule["cells_precached"]
            + schedule["cells_shared"]
            + schedule["cells_coalesced"]
        )
        if reuse <= 0:
            problems.append(
                "no cross-figure reuse: deduped+precached+shared+coalesced == 0"
            )
        if schedule["duplicate_solves"] > 0:
            problems.append(
                f"{schedule['duplicate_solves']} duplicate solves in the drain "
                "(every unique cell must be computed exactly once)"
            )
    identity = document.get("identity")
    if identity is not None and not identity.get("ok"):
        problems.append(
            "identity check failed: "
            f"cells_match={identity.get('cells_match')} "
            f"outputs_match={identity.get('outputs_match')}"
        )
    if reference is not None:
        cpus_here = (document.get("machine") or {}).get("cpus") or 0
        cpus_ref = (reference.get("machine") or {}).get("cpus") or 0
        ours = _unique_cell_throughput(document)
        theirs = _unique_cell_throughput(reference)
        if cpus_here >= 2 and cpus_ref >= 2 and ours is not None and theirs is not None:
            if ours < THROUGHPUT_FLOOR * theirs:
                problems.append(
                    f"unique-cell throughput regressed: {ours:.3f}/s vs "
                    f"reference {theirs:.3f}/s (floor {THROUGHPUT_FLOOR:.0%})"
                )
    return problems


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.suite",
        description="run the paper's figure suite with caching and fan-out",
    )
    parser.add_argument(
        "names", nargs="*", default=["all"],
        help=f"experiment names (prefix match) or 'all'; known: {', '.join(ALL_EXPERIMENTS)}",
    )
    parser.add_argument("--jobs", type=int, default=1, help="drain worker processes")
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the plan/result cache"
    )
    parser.add_argument("--full", action="store_true", help="full sweeps (slow)")
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="also run reference passes (serial cache-disabled, then cold-cache) "
        "and record their speedups; empties the on-disk cache first",
    )
    parser.add_argument(
        "--identity-check",
        action="store_true",
        help="verify the jobs=N drain against a serial re-drain "
        "(cells_fingerprint) and a replay assembly (output_fingerprint)",
    )
    parser.add_argument(
        "--check-against", default=None, metavar="PATH",
        help="gate this run against a reference BENCH_suite.json "
        "(dedup counters, identity, unique-cell throughput)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite the bench report even if the existing one has "
        "greater coverage (full sweep / more figures)",
    )
    parser.add_argument(
        "--bench-out", default=DEFAULT_BENCH_PATH, help="timing report path"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="override the on-disk cache directory"
    )
    args = parser.parse_args(argv)

    try:
        default_jobs()  # fail fast on a malformed REPRO_JOBS before any work
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = resolve_names(args.names)
    if not names:
        print(f"no experiments match {args.names}; known: {', '.join(ALL_EXPERIMENTS)}")
        return 1

    baseline = cold = None
    if args.baseline:
        print("== baseline pass (serial, cache disabled) ==")
        baseline = run_suite(
            names, fast=not args.full, jobs=1, use_cache=False, stream=io.StringIO()
        )
        print(baseline.summary_table().format())
        print()
        # Empty the disk tier so the next pass measures a genuine cold
        # start (intra-run reuse only), then leave it warm for the final
        # pass — the suite's operating mode per run_suite's docstring.
        with cache_overridden(disk=True, directory=args.cache_dir) as cache:
            cache.clear_disk()
        print("== cold-cache pass (empty cache) ==")
        cold = run_suite(
            names,
            fast=not args.full,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            stream=io.StringIO(),
        )
        print(cold.summary_table().format())
        print()
        print("== warm-cache pass ==")

    report = run_suite(
        names,
        fast=not args.full,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        bench_path=None,
    )

    identity = None
    if args.identity_check:
        if args.no_cache:
            print("error: --identity-check requires the cache", file=sys.stderr)
            return 2
        identity = check_identity(
            report, names, fast=not args.full, cache_dir=args.cache_dir
        )
        verdict = "ok" if identity["ok"] else "MISMATCH"
        print(
            f"identity check: {verdict} "
            f"(cells_match={identity['cells_match']}, "
            f"outputs_match={identity['outputs_match']})"
        )

    if args.bench_out:
        try:
            document = write_bench(
                report,
                args.bench_out,
                baseline=baseline,
                cold=cold,
                identity=identity,
                force=args.force,
            )
        except BenchOverwriteError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.bench_out}")
    else:
        document = report.as_dict()
        if identity is not None:
            document["identity"] = identity

    if identity is not None and not identity["ok"]:
        return 3

    if args.check_against:
        with open(args.check_against, encoding="utf-8") as handle:
            reference = json.load(handle)
        problems = check_suite_document(document, reference)
        for problem in problems:
            print(f"check: {problem}", file=sys.stderr)
        if problems:
            return 4
        print(f"check against {args.check_against}: ok")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
