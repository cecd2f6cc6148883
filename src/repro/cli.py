"""Command-line interface.

Subcommands:

* ``plan``     — run Mobius's planner for a model/topology and print the plan;
* ``compare``  — simulate every system (GPipe, DeepSpeed pipeline,
  ZeRO-Offload, ZeRO-3 heterogeneous memory, Mobius) on one configuration;
* ``advise``   — sweep microbatch sizes for the best throughput;
* ``figures``  — regenerate paper figures by name (or ``all``);
* ``lint``     — run the MOB source rules standalone: per-file MOB000-003
  plus the interprocedural MOB004-007 analysis (:mod:`repro.check.analysis`);
  ``--json`` / ``--sarif`` for CI, ``--baseline`` for suppressions;
* ``check``    — verify planner output, traces and source contracts
  (:mod:`repro.check`); exits non-zero on findings, ``--json`` for CI;
* ``chaos``    — run the fault-injection matrix (:mod:`repro.faults`):
  every check-corpus cell under dropout/degraded-link/straggler/flaky
  faults, asserting recovery; exits non-zero if any cell fails;
* ``simbench`` — benchmark the discrete-event simulator (:mod:`repro.sim`)
  over the check corpus and chaos scenarios: trace fingerprints plus the
  incremental allocator's work counters; ``--check-against`` gates CI on
  the committed ``BENCH_sim.json`` (any fingerprint divergence fails);
* ``serve``    — run the planning daemon (:mod:`repro.serve`) over a
  scripted corpus session: admission control, request coalescing,
  supervised workers and a durable sqlite result store;
* ``servebench`` — benchmark the daemon: plans/sec cold vs warm vs
  coalesced plus the serve chaos scenarios (worker kill, poison
  quarantine, deadline straggler, store corruption, overload burst);
  ``--check-against`` gates CI on the committed ``BENCH_serve.json``.

Examples:
    python -m repro plan --model 15B --topology 2+2
    python -m repro compare --model 8B --topology 4 --microbatch 1
    python -m repro advise --model 8B --topology 2+2
    python -m repro figures fig5 fig6
    python -m repro lint --json
    python -m repro lint src/repro/sim --sarif lint.sarif
    python -m repro check --json
    python -m repro chaos --json
    python -m repro simbench --check-against BENCH_sim.json
    python -m repro serve --store .mobius_serve.sqlite --rounds 2
    python -m repro servebench --check-against BENCH_serve.json
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import SYSTEMS, ExperimentTable, print_tables, run_system
from repro.hardware.gpu import GPU_PRESETS
from repro.hardware.topology import Topology, commodity_server, datacenter_server
from repro.models.zoo import model_by_name

__all__ = ["main", "build_parser"]


def _parse_topology(spec: str, gpu: str) -> Topology:
    """Parse a topology spec: ``"2+2"``, ``"4"``, ``"1+3"`` or ``"dc"``."""
    if spec.lower() in ("dc", "datacenter"):
        return datacenter_server()
    try:
        groups = [int(part) for part in spec.split("+")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"topology must look like '2+2', '4', '1+3' or 'dc', got {spec!r}"
        ) from None
    return commodity_server(groups, GPU_PRESETS[gpu])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mobius (ASPLOS 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default="15B", help="3B | 8B | 15B | 51B | GPT2")
        p.add_argument("--topology", default="2+2", help="'2+2', '4', '1+3', '4+4' or 'dc'")
        p.add_argument(
            "--gpu", default="RTX 3090-Ti", choices=sorted(GPU_PRESETS),
            help="GPU preset for commodity topologies",
        )
        p.add_argument("--microbatch", type=int, default=None, help="microbatch size")
        p.add_argument(
            "--time-limit", type=float, default=5.0, help="MIP search budget (s)"
        )

    plan = sub.add_parser("plan", help="run the Mobius planner and print the plan")
    add_common(plan)

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
        "--jobs", type=int, default=1,
        help="drain the suite-wide cell schedule with N worker processes "
        "(figures assemble serially from the shared cache afterwards)",
    )
    figures.add_argument(
        "--no-cache", action="store_true",
        help="disable the plan/result cache (cold reference run)",
    )
    figures.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="write a machine-readable timing report (e.g. BENCH_suite.json)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the MOB source rules (per-file + whole-program analysis)",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="repo-relative files/directories to report on (default: all)",
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable report for CI"
    )
    lint.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="write a SARIF 2.1.0 report to PATH ('-' for stdout)",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="suppression baseline (default: <root>/LINT_BASELINE.json)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    lint.add_argument(
        "--no-analysis", action="store_true",
        help="per-file rules only; skip the interprocedural MOB004-007 pass",
    )
    lint.add_argument(
        "--root", default=None, metavar="DIR",
        help="repo root (default: auto-detected)",
    )

    check = sub.add_parser(
        "check",
        help="verify planner output, traces and source contracts",
    )
    check.add_argument(
        "--json", action="store_true", help="machine-readable report for CI"
    )
    check.add_argument(
        "--no-corpus", action="store_true",
        help="skip the plan/mapping/trace corpus (lint only)",
    )
    check.add_argument(
        "--no-lint", action="store_true",
        help="skip the MOB0xx source lint (corpus only)",
    )
    check.add_argument(
        "--root", default=None, metavar="DIR",
        help="repo root for the source lint (default: auto-detected)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="inject faults over the check corpus and verify recovery",
    )
    chaos.add_argument(
        "--json", action="store_true", help="machine-readable report for CI"
    )
    chaos.add_argument(
        "--out", default="BENCH_chaos.json", metavar="PATH",
        help="where to write the JSON report (default: %(default)s)",
    )
    chaos.add_argument("--seed", type=int, default=0, help="fault-schedule seed")
    chaos.add_argument(
        "--steps", type=int, default=4,
        help="training-window length (steps) for goodput accounting",
    )

    simbench = sub.add_parser(
        "simbench",
        help="benchmark the simulator's incremental flow allocator",
    )
    simbench.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="write the benchmark JSON to PATH (or stdout with no PATH)",
    )
    simbench.add_argument(
        "--check-against", default=None, metavar="PATH",
        help="committed BENCH_sim.json baseline; exit 1 on trace-"
        "fingerprint divergence or >25%% allocator-work regression",
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
        "--workers", type=int, default=1, metavar="N",
        help="dispatch/worker parallelism: N dispatch threads over N "
        "supervised workers (default: %(default)s)",
    )
    serve.add_argument(
        "--rounds", type=int, default=2,
        help="serve the check corpus this many times (round 2+ hits caches)",
    )
    serve.add_argument(
        "--deadline-nodes", type=int, default=None, metavar="N",
        help="per-request deadline as a solver node budget",
    )
    serve.add_argument(
        "--json", action="store_true", help="machine-readable stats for CI"
    )

    servebench = sub.add_parser(
        "servebench",
        help="benchmark the planning daemon (throughput + chaos recovery)",
    )
    servebench.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="write the benchmark JSON to PATH (or stdout with no PATH)",
    )
    servebench.add_argument(
        "--check-against", default=None, metavar="PATH",
        help="committed BENCH_serve.json baseline; exit 1 on fingerprint "
        "divergence, chaos regression, or >25%% throughput regression",
    )
    servebench.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="top of the worker-scaling ladder (the bench always measures "
        "1 and 2 too; default: REPRO_JOBS capped at 4)",
    )
    return parser


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.api import MobiusConfig, plan_mobius

    model = model_by_name(args.model)
    topology = _parse_topology(args.topology, args.gpu)
    report = plan_mobius(
        model,
        topology,
        MobiusConfig(
            microbatch_size=args.microbatch,
            partition_time_limit=args.time_limit,
        ),
    )
    print(report.plan.describe())
    print(
        f"planning overhead: profile {report.profiling_seconds:.1f}s, "
        f"MIP {report.mip_solve_seconds:.1f}s, mapping {report.mapping_seconds:.3f}s"
    )
    print(f"estimated step time: {report.plan.estimated_step_seconds:.2f}s")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    model = model_by_name(args.model)
    topology = _parse_topology(args.topology, args.gpu)
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

    model = model_by_name(args.model)
    topology = _parse_topology(args.topology, args.gpu)
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
    from repro.experiments.suite import resolve_names, run_suite

    wanted = resolve_names(args.names)
    if not wanted:
        print(f"no experiments match {args.names}; known: {', '.join(ALL_EXPERIMENTS)}")
        return 1
    run_suite(
        wanted,
        fast=not args.full,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        bench_path=args.bench_out,
    )
    return 0


def _lint_root(root_arg: str | None):
    from pathlib import Path

    return (
        Path(root_arg)
        if root_arg is not None
        else Path(__file__).resolve().parents[2]
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.check.analysis import Baseline, run_lint, to_sarif
    from repro.check.analysis.baseline import DEFAULT_BASELINE_PATH

    root = _lint_root(args.root)
    if not (root / "src" / "repro").is_dir():
        print(f"error: no src/repro under {root}", file=sys.stderr)
        return 2

    baseline_path = (
        args.baseline if args.baseline is not None else root / DEFAULT_BASELINE_PATH
    )
    run = run_lint(
        root,
        args.paths or None,
        baseline_path=baseline_path,
        analysis=not args.no_analysis,
    )

    if args.write_baseline:
        findings = run.report
        findings.extend(run.suppressed)
        Baseline.from_report(findings).save(baseline_path)
        print(f"baseline with {len(findings)} finding(s) written to {baseline_path}")
        return 0

    if args.sarif is not None:
        sarif = to_sarif(run.report)
        if args.sarif == "-":
            print(sarif)
        else:
            with open(args.sarif, "w", encoding="utf-8") as f:
                f.write(sarif + "\n")
            if not args.json:
                print(f"SARIF report written to {args.sarif}")

    if args.json:
        print(_json_dumps(run.to_dict()))
    elif args.sarif != "-":
        print(run.report.render())
        if run.suppressed:
            print(f"{len(run.suppressed)} finding(s) suppressed by baseline")
        for entry in run.unused_entries:
            print(
                f"warning: stale baseline entry {entry.code} "
                f"{entry.path}::{entry.symbol} matched nothing"
            )
    return 0 if run.ok else 1


def _json_dumps(payload: dict) -> str:
    import json

    return json.dumps(payload, indent=2)


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import CheckReport, run_corpus
    from repro.check.analysis import run_lint

    report = CheckReport()

    if not args.no_lint:
        root = _lint_root(args.root)
        if (root / "src" / "repro").is_dir():
            report.extend(run_lint(root).report)
        elif not args.json:
            print(f"note: no src/repro under {root}; skipping source lint")

    if not args.no_corpus:
        progress = None if args.json else lambda name: print(f"checking {name} ...")
        report.extend(run_corpus(progress=progress))

    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import run_chaos

    progress = None if args.json else lambda name: print(f"chaos {name} ...")
    report = run_chaos(seed=args.seed, n_steps=args.steps, progress=progress)
    with open(args.out, "w") as f:
        f.write(report.to_json() + "\n")
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
        print(f"report written to {args.out}")
    return 0 if report.ok else 1


def _cmd_simbench(args: argparse.Namespace) -> int:
    import json

    from repro.sim.bench import compare_benchmarks, run_bench, write_bench

    document = run_bench()
    if args.json == "-":
        print(json.dumps(document, indent=1))
    elif args.json is not None:
        write_bench(args.json, document)
        print(f"benchmark written to {args.json}")
    else:
        for row in document["corpus"]:
            print(
                f"corpus {row['name']:<18} events={row['events']:<6} "
                f"realloc={row['reallocations']:<5} "
                f"realloc/event={row['reallocations_per_event']:<6} "
                f"touched/realloc={row['flows_touched_per_reallocation']:<6} "
                f"fp={row['fingerprint'][:12]}"
            )
        for row in document["chaos"]:
            fp = row["fingerprint"]
            print(
                f"chaos {row['name']:<28} {row['status']:<10} "
                f"fp={fp[:12] if fp else '-'}"
            )
        for row in document.get("large", []):
            print(
                f"large {row['name']:<18} events={row['events']:<8} "
                f"wall={row['wall_seconds']:<8} rss={row['peak_rss_mb']}MB "
                f"fp={row['fingerprint'][:12]}"
            )
    failures: list[str] = []
    if args.check_against is not None:
        with open(args.check_against) as f:
            baseline = json.load(f)
        failures.extend(compare_benchmarks(document, baseline))
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
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
        for round_index in range(max(1, args.rounds)):
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
        print(_json_dumps(stats))
    else:
        print(
            f"served {stats['completed']} solve(s), "
            f"{stats['coalesced_joins']} coalesced join(s), "
            f"{stats['deadline_misses']} deadline miss(es); "
            f"store: {stats['store']}"
        )
    return 0 if all(r.ok for _, _, r in responses) else 1


def _cmd_servebench(args: argparse.Namespace) -> int:
    import json

    from repro.serve.bench import compare_benchmarks, run_bench, write_bench

    document = run_bench(workers=args.workers)
    if args.json == "-":
        print(json.dumps(document, indent=1))
    elif args.json is not None:
        write_bench(args.json, document)
        print(f"benchmark written to {args.json}")
    else:
        for row in document["throughput"]:
            print(
                f"throughput {row['name']:<14} plans={row['plans']:<4} "
                f"wall={row['wall_seconds']:<8} plans/s={row['plans_per_second']}"
            )
        for row in document["plans"]:
            flag = "ok" if row["consistent"] else "FAIL"
            print(
                f"plan {row['name']:<18} fp={row['fingerprint'][:12]} [{flag}]"
            )
        scaling = document["scaling"]
        for row in scaling["rows"]:
            print(
                f"scaling workers={row['workers']:<2} plans={row['plans']:<4} "
                f"wall={row['wall_seconds']:<8} plans/s={row['plans_per_second']}"
            )
        print(
            f"scaling cpus={scaling['cpus']} "
            f"speedup(top vs 1)={scaling['speedup_top_vs_1']} "
            f"[{'ok' if scaling['consistent'] else 'FAIL'}]"
        )
        for row in document["recovery"]:
            print(
                f"recovery {row['name']:<24} "
                f"[{'ok' if row['ok'] else 'FAIL'}]"
            )
    failures = [
        f"recovery:{row['name']}: scenario failed"
        for row in document["recovery"]
        if not row["ok"]
    ]
    failures.extend(
        f"plans:{row['name']}: serving regimes returned divergent fingerprints"
        for row in document["plans"]
        if not row["consistent"]
    )
    if not document["scaling"]["consistent"]:
        failures.append("scaling: fingerprints diverged across worker counts")
    if args.check_against is not None:
        with open(args.check_against) as f:
            baseline = json.load(f)
        failures.extend(compare_benchmarks(document, baseline))
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


_COMMANDS = {
    "plan": _cmd_plan,
    "compare": _cmd_compare,
    "advise": _cmd_advise,
    "figures": _cmd_figures,
    "lint": _cmd_lint,
    "check": _cmd_check,
    "chaos": _cmd_chaos,
    "simbench": _cmd_simbench,
    "serve": _cmd_serve,
    "servebench": _cmd_servebench,
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
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
