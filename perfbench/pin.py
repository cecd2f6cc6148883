"""Recompute the reference outputs the benchmark checks against.

Usage, from the repository root::

    python3 perfbench/pin.py > perfbench/reference.json

Run it only when a change is meant to alter planner or simulator
outputs; the pinned values are what every other change must reproduce.
The suite's ``cells_fingerprint`` is copied from the committed
``BENCH_suite.json`` rather than recomputed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.api import plan_mobius  # noqa: E402
from repro.experiments.runner import SYSTEMS  # noqa: E402
from repro.perf.cache import cache_overridden  # noqa: E402
from repro.perf.fingerprint import fingerprint  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    reference: dict = {}
    plan = workloads.Plan8Gpu()
    state = plan.setup(0, ROOT)
    with cache_overridden(memory=False, disk=False):
        reference["plan-8gpu"] = {}
        for model in state["models"]:
            workloads.clear_hints()
            report = plan_mobius(model, state["topology"], state["config"])
            reference["plan-8gpu"][model.name] = fingerprint(report.plan)

        sim_state = workloads.Sim4Gpu().setup(0, ROOT)
        reference["sim-4gpu"] = {
            cell["label"]: {
                system: workloads.describe_outcome(
                    *workloads.simulate_cell_system(cell, system)
                )
                for system in SYSTEMS
            }
            for cell in sim_state["cells"]
        }

        topology = workloads.SERVE_TOPOLOGY()
        hot = {}
        for factor in workloads.HOT_FACTORS:
            workloads.clear_hints()
            request = workloads._serve_request(topology, factor, "pin")
            report = plan_mobius(request.model, request.topology, request.config)
            hot[repr(factor)] = fingerprint(report.plan)
        reference["serve-mixed"] = {"hot": hot}

    suite = json.loads((ROOT / "BENCH_suite.json").read_text())
    reference["suite-cold"] = {"cells_fingerprint": suite["schedule"]["cells_fingerprint"]}
    json.dump(reference, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
