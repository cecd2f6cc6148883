"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload plan-8gpu --seed 1 --seconds 15 --trace 0

``--seconds`` fixes the number of ops through each workload's nominal
op cost (``round(seconds / nominal_op_s)``, at least one); a run is never
cut on the clock, so every run of a workload does the same work.

With ``--trace 0`` the last line holds the end-to-end metrics
(``ops_per_s``, ``op_s``, ``peak_rss_mb``, ``setup_s``).  With
``--trace 1`` the ops run twice, untraced and then traced, and the last
line holds the per-layer self times and work counters plus
``trace.overhead_s`` (summed op time traced minus untraced).  The traced run also
writes a Chrome-trace JSON file under ``.perfbench/traces/``.

Every run writes only under ``.perfbench/`` in the repository and removes
its scratch files before it exits.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"

#: Fresh interpreters timed from start to "ready for the first op";
#: ``setup_s`` is the median of their reference-host times.
SETUP_PROBES = 5

#: A run still going after this many seconds is stopped with a stack dump.
WATCHDOG_S = 170


def _prepare_environment() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no repro package under {ROOT / 'src'}; run from a full checkout")
    # One core for the run and its set-up probes: every timing and the
    # host-speed sample that scales it are taken on the same vCPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("MOBIUS_CACHE", "MOBIUS_CACHE_DISK", "MOBIUS_CACHE_DIR", "REPRO_JOBS"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))
    scratch = WORK_ROOT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _work_dir(kind: str) -> Path:
    path = WORK_ROOT / f"{kind}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _setup_probe(workload_name: str, seed: int) -> None:
    """Set the workload up in this fresh interpreter, then tear it down."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    workdir = _work_dir("probe")
    try:
        state = workload.setup(seed, workdir)
        close = getattr(workload, "close", None)
        if close is not None:
            close(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure_setup(workload_name: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and reference-host seconds of each set-up probe.

    A probe is a fresh interpreter timed from start to exit.  Host-speed
    samples are taken in this process between the probes (never while one
    runs, which would compete with it for the pinned CPU).
    """
    speed = HostSpeed(interval=None)
    speed.take()
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        _, error, segments = speed.time(lambda: subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=120,
        ))
        speed.take()
        if error is not None:
            raise error
        raw.append(sum(end - start for start, end in segments))
        scaled.append(speed.scaled(segments))
    return raw, scaled


def _measured_pass(workload, seed: int, n_ops: int, reference: dict, tracer=None):
    """Set up (untraced), then run ``n_ops`` ops, traced if ``tracer``."""
    workdir = _work_dir("run")
    state = None
    try:
        state = workload.setup(seed, workdir)
        if tracer is not None:
            tracing.install(tracer)
        return workload.run(
            state, n_ops, reference, stop_tracing=tracer.restore if tracer is not None else None
        )
    finally:
        if tracer is not None:
            tracer.restore()
        close = getattr(workload, "close", None)
        if close is not None and state is not None:
            close(state)
        shutil.rmtree(workdir, ignore_errors=True)


def _tail(latencies: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it, if >= p90."""
    n = len(latencies)
    if n < 100:
        return None
    ordered = sorted(latencies)
    return {"percentile": round(100.0 * (n - 10) / n, 2), "seconds": ordered[n - 11], "samples": n}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # A hung run dumps every thread's stack and exits non-zero.
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    _prepare_environment()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    from workloads import WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    reference = load_reference()
    n_ops = max(1, round(args.seconds / workload.nominal_op_s))

    detail: dict = {"workload": workload.name, "seed": args.seed, "ops": n_ops}
    if args.trace:
        untraced = _measured_pass(workload, args.seed, n_ops, reference)
        tracer = tracing.Tracer()
        result = _measured_pass(workload, args.seed, n_ops, reference, tracer)
        scale = statistics.median(result.scales) if result.scales else 1.0
        metrics = tracing.layer_metrics(tracer, scale)
        metrics["serve.late_s"] = {"value": result.late_s, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": sum(result.scaled_latencies) - sum(untraced.scaled_latencies),
            "unit": "s",
        }
        traces = WORK_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{workload.name}-seed{args.seed}.json"
        trace_path.write_text(tracer.to_chrome_trace())
        detail.update(trace=str(trace_path.relative_to(ROOT)), missing=tracer.missing,
                      untraced_counters=untraced.counters)
        failed = untraced.failed + result.failed
        attempted = untraced.attempted + result.attempted
        problems = untraced.problems + result.problems
    else:
        setup_raw, setup_scaled = _measure_setup(workload.name, args.seed)
        result = _measured_pass(workload, args.seed, n_ops, reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scaled = result.scaled_latencies
        metrics = {
            "ops_per_s": {"value": result.good / result.scaled_window_s, "unit": "1/s"},
            "op_s": {"value": statistics.median(scaled) if scaled else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        }
        detail.update(
            raw={
                "ops_per_s": result.good / result.window_s,
                "op_s": statistics.median(result.latencies) if result.latencies else None,
                "setup_s": statistics.median(setup_raw),
                "tail": _tail(result.latencies),
            },
            host_scale=statistics.median(result.scales) if result.scales else None,
            setup_samples=setup_raw,
            calibration=[round(seconds, 5) for seconds in result.calibration],
            tail=_tail(scaled),
            late_s=result.late_s,
            latencies=[round(t, 4) for t in result.latencies],
            scales=[round(f, 4) for f in result.scales],
        )
        failed, attempted, problems = result.failed, result.attempted, result.problems
    detail.update(counters=result.counters, problems=problems)

    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
