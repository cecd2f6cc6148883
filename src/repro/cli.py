"""Command-line interface.

Subcommands:

* ``plan``     — run Mobius's planner for a model/topology and print the plan;
* ``compare``  — simulate every system (GPipe, DeepSpeed pipeline,
  ZeRO-Offload, ZeRO-3 heterogeneous memory, Mobius) on one configuration;
* ``advise``   — sweep microbatch sizes for the best throughput;
* ``figures``  — regenerate paper figures by name (or ``all``);
* ``lint``     — run the MOB source rules, the MOB003-007 whole-program
  analysis (:mod:`repro.check.analysis`); ``--json`` for CI.  A finding
  is fine only where ``AnalysisConfig`` says so (a seam or an allowlisted
  clock site, each with its reason); there is no suppression file;
* ``serve``    — run the planning daemon (:mod:`repro.serve`) over a
  scripted corpus session: admission control, request coalescing,
  supervised workers and a durable sqlite result store;
* ``bench``    — run one of the four benchmarks (``sim``, ``serve``,
  ``suite``, ``chaos``) and gate it against a committed ``BENCH_*.json``
  with ``--check-against`` (:mod:`repro.perf.bench`; README, "Benchmarks
  and gates").

Examples:
    python -m repro plan --model 15B --topology 2+2
    python -m repro compare --model 8B --topology 4 --microbatch 1
    python -m repro advise --model 8B --topology 2+2
    python -m repro figures fig5 fig6
    python -m repro lint --json
    python -m repro lint src/repro/sim
    python -m repro serve --store .mobius_serve.sqlite --rounds 2
    python -m repro bench sim --check-against BENCH_sim.json
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import SYSTEMS, ExperimentTable, print_tables, run_system
from repro.hardware.gpu import GPU_PRESETS
from repro.hardware.topology import Topology, commodity_server, datacenter_server
from repro.models.spec import ModelSpec
from repro.models.zoo import _FACTORIES, model_by_name
from repro.perf.bench import KINDS as BENCH_KINDS

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """A bad command-line value: ``main`` prints one ``error:`` line and exits 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``error:`` line, exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message} (see '{self.prog} --help')\n")


def _positive_int(text: str) -> int:
    """The argparse type of counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """The argparse type of budgets that must be above 0 (``nan`` is not)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def _parse_topology(spec: str, gpu: str) -> Topology:
    """Parse a topology spec: ``"2+2"``, ``"4"``, ``"1+3"`` or ``"dc"``."""
    if spec.lower() in ("dc", "datacenter"):
        return datacenter_server()
    try:
        # Topology raises ValueError on a group of zero or fewer GPUs too.
        return commodity_server([int(part) for part in spec.split("+")], GPU_PRESETS[gpu])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"topology must look like '2+2', '4', '1+3' or 'dc', got {spec!r}"
        ) from None


def _model_and_topology(args: argparse.Namespace) -> tuple[ModelSpec, Topology]:
    """The ``--model`` and ``--topology`` of ``plan``, ``compare`` and ``advise``."""
    try:
        return model_by_name(args.model), _parse_topology(args.topology, args.gpu)
    except KeyError as exc:  # unknown model: the message lists the zoo
        raise _UsageError(exc.args[0]) from None
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Mobius (ASPLOS 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default="15B", help=" | ".join(_FACTORIES))
        p.add_argument("--topology", default="2+2", help="'2+2', '4', '1+3', '4+4' or 'dc'")
        p.add_argument(
            "--gpu", default="RTX 3090-Ti", choices=sorted(GPU_PRESETS),
            help="GPU preset for commodity topologies",
        )
        p.add_argument(
            "--microbatch", type=_positive_int, default=None, help="microbatch size"
        )

    plan = sub.add_parser("plan", help="run the Mobius planner and print the plan")
    add_common(plan)
    plan.add_argument(
        "--time-limit", type=_positive_float, default=5.0, help="MIP search budget (s)"
    )

    compare = sub.add_parser("compare", help="simulate every system on one config")
    add_common(compare)

    advise = sub.add_parser("advise", help="find the throughput-best microbatch size")
    add_common(advise)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument(
        "names",
        nargs="+",
        help=f"experiment names (prefix match) or 'all'; known: {', '.join(ALL_EXPERIMENTS)}",
    )
    figures.add_argument("--full", action="store_true", help="full sweeps (slow)")
    figures.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="drain the suite-wide cell schedule with N worker processes "
        "(figures assemble serially from the shared cache afterwards)",
    )
    figures.add_argument(
        "--no-cache", action="store_true",
        help="disable the plan/result cache (cold reference run)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the MOB source rules (whole-program analysis)",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="existing files/directories under the root to report on "
        "(default: all)",
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable report for CI"
    )
    lint.add_argument(
        "--root", default=None, metavar="DIR",
        help="repo root (default: auto-detected)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the planning daemon over a scripted corpus session",
    )
    serve.add_argument(
        "--store", default=".mobius_serve.sqlite", metavar="PATH",
        help="durable sqlite store (default: %(default)s); 'none' disables",
    )
    serve.add_argument(
        "--worker", default="inline", choices=("inline", "process"),
        help="solver worker kind (process = supervised child process)",
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="dispatch/worker parallelism: N dispatch threads over N "
        "supervised workers (default: %(default)s)",
    )
    serve.add_argument(
        "--rounds", type=_positive_int, default=2,
        help="serve the check corpus this many times (round 2+ hits caches)",
    )
    serve.add_argument(
        "--deadline-nodes", type=_positive_int, default=None, metavar="N",
        help="per-request deadline as a solver node budget",
    )
    serve.add_argument(
        "--json", action="store_true", help="machine-readable stats for CI"
    )

    bench = sub.add_parser(
        "bench",
        help="run a benchmark and gate it against a committed document",
    )
    bench.add_argument("kind", choices=tuple(BENCH_KINDS))
    bench.add_argument(
        "--out", default=None, metavar="PATH", help="write the bench document here"
    )
    bench.add_argument(
        "--check-against", default=None, metavar="PATH",
        help="committed BENCH_<kind>.json; exit 1 on any gate failure",
    )
    bench.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="serve: top worker count (default: REPRO_JOBS capped at 4); "
        "suite: drain workers (default: REPRO_JOBS or the CPU count)",
    )
    return parser


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.api import MobiusConfig, plan_mobius
    from repro.perf.bench import Stopwatch

    model, topology = _model_and_topology(args)
    watch = Stopwatch()
    report = plan_mobius(
        model,
        topology,
        MobiusConfig(
            microbatch_size=args.microbatch,
            partition_time_limit=args.time_limit,
        ),
    )
    seconds = watch.seconds
    partition = report.partition_result
    print(report.plan.describe())
    print(
        f"planning work: profile {report.profile_report.profiling_seconds:.1f}s "
        f"(simulated), MIP {partition.nodes_explored} nodes (gap {partition.gap:.3f}), "
        f"mapping {report.mapping_result.schemes_evaluated} schemes"
    )
    print(f"planned in {seconds:.3f}s")
    print(f"estimated step time: {report.plan.estimated_step_seconds:.2f}s")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    model, topology = _model_and_topology(args)
    table = ExperimentTable(
        title=f"{model.name} on {topology.name}",
        columns=("system", "step_s", "traffic_GB", "non_overlapped"),
    )
    for system in SYSTEMS:
        result = run_system(
            system, model, topology, microbatch_size=args.microbatch
        )
        if result.ok:
            assert result.trace is not None
            table.add_row(
                system,
                result.step_seconds,
                result.trace.total_transfer_bytes() / 1e9,
                result.trace.non_overlapped_comm_fraction(),
            )
        else:
            table.add_row(system, "OOM", "-", "-")
    print_tables(table)
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.extensions import advise_microbatch_size

    model, topology = _model_and_topology(args)
    advice = advise_microbatch_size(model, topology)
    table = ExperimentTable(
        title=f"microbatch sweep: {model.name} on {topology.name}",
        columns=("microbatch", "step_s", "samples_per_s"),
    )
    for mbs in sorted(advice.throughputs):
        table.add_row(mbs, advice.step_seconds[mbs], advice.throughputs[mbs])
    table.notes.append(f"best microbatch size: {advice.best_microbatch_size}")
    print_tables(table)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.schedule import DrainFailed
    from repro.experiments.suite import resolve_names, run_suite

    wanted = resolve_names(args.names)
    if not wanted:
        raise _UsageError(
            f"no experiments match {' '.join(args.names)}; "
            f"known: {', '.join(ALL_EXPERIMENTS)}"
        )
    try:
        run_suite(
            wanted,
            fast=not args.full,
            jobs=args.jobs,
            use_cache=not args.no_cache,
        )
    except DrainFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.check.analysis import run_lint

    root = (
        Path(args.root)
        if args.root is not None
        else Path(__file__).resolve().parents[2]
    )
    if not (root / "src" / "repro").is_dir():
        print(f"error: no src/repro under {root}", file=sys.stderr)
        return 2
    try:
        report = run_lint(root, args.paths or None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else report.render())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.check.corpus import default_corpus
    from repro.serve import Deadline, PlanRequest, PlanService, ServiceConfig

    store_path = None if args.store == "none" else args.store
    deadline = (
        Deadline(max_nodes=args.deadline_nodes)
        if args.deadline_nodes is not None
        else None
    )
    responses = []
    with PlanService(
        ServiceConfig(
            store_path=store_path, worker=args.worker, workers=args.workers
        )
    ) as service:
        for round_index in range(args.rounds):
            for cell in default_corpus():
                response = service.plan(
                    PlanRequest(
                        model=cell.model,
                        topology=cell.topology,
                        config=cell.config,
                        deadline=deadline,
                    )
                )
                responses.append((round_index, cell.name, response))
                if not args.json:
                    print(
                        f"round {round_index} {cell.name:<18} "
                        f"{response.status:<9} source={response.source:<9} "
                        f"fp={response.plan_fingerprint[:12] if response.plan_fingerprint else '-'}"
                    )
        stats = service.stats()
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        print(
            f"served {stats['completed']} solve(s), "
            f"{stats['coalesced_joins']} coalesced join(s), "
            f"{stats['deadline_misses']} deadline miss(es); "
            f"store: {stats['store']}"
        )
    return 0 if all(r.ok for _, _, r in responses) else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.perf.bench import compare, render, run, write

    document = run(args.kind, args.jobs)
    print(render(document))
    if args.out is not None:
        write(document, args.out)
        print(f"bench document written to {args.out}")
    baseline = document
    if args.check_against is not None:
        with open(args.check_against) as f:
            baseline = json.load(f)
    # Against itself a document can fail only its checks.
    failures = compare(document, baseline)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


_COMMANDS = {
    "plan": _cmd_plan,
    "compare": _cmd_compare,
    "advise": _cmd_advise,
    "figures": _cmd_figures,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    from repro.experiments.runner import default_jobs

    try:
        default_jobs()  # fail fast on a malformed REPRO_JOBS before any work
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
