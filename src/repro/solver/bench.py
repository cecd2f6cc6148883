"""Solver benchmark: the ``repro solvebench`` backend.

Runs the MILP stack over deterministic instances derived from the check
corpus (:mod:`repro.check.corpus`) and emits ``BENCH_solver.json``:

* **literal partition MIPs** — each corpus cell's Eqs. 3-11 boolean MIP
  (:func:`repro.core.mip_formulation.build_partition_mip`) solved by our
  branch & bound and cross-validated against scipy's HiGGS MILP: statuses
  must agree and optimal objectives match to 1e-6 (``parity``);
* **warm-vs-cold invariance** — every MIP is re-solved warm-started from
  its own cold solution; the returned ``x`` must be bit-identical and the
  tree no larger;
* **partition searches** — the production partitioner
  (:func:`repro.core.partition.mip_partition`) per cell, cold and
  warm-started from the previous cell's result, with node counts and the
  boundary fingerprint.

Node counts, statuses, objectives, and fingerprints are deterministic
(budget-bound, clock-free searches); wall times are informational only.
The CI gate (:func:`compare_benchmarks`) fails on a parity regression or
a >25% node-count regression against the committed baseline, ignoring
wall time (hardware-dependent).
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.check.corpus import default_corpus
from repro.core.mip_formulation import build_partition_mip
from repro.core.partition import mip_partition
from repro.models.costmodel import CostModel
from repro.solver.branch_bound import BranchAndBoundSolver, MIPStatus
from repro.solver.scipy_backend import solve_milp_scipy
from repro.solver.warmstart import WarmStartContext

__all__ = ["run_bench", "write_bench", "compare_benchmarks", "BENCH_SCHEMA"]

BENCH_SCHEMA = "mobius-bench-solver/1"

#: Node-count regressions beyond this ratio fail the CI gate.
NODE_REGRESSION_RATIO = 1.25

#: The serial, uncached suite total committed before this solver overhaul
#: (BENCH_suite.json at the fault-injection PR) — the perf baseline the
#: overhaul is measured against.
SUITE_BASELINE_SECONDS = 85.7


@dataclasses.dataclass
class _MIPRow:
    name: str
    n_vars: int
    n_rows: int
    status: str
    objective: float | None
    ref_status: str
    ref_objective: float | None
    parity: bool
    nodes: int
    pivots: int
    cuts: int
    warm_nodes: int
    warm_identical: bool
    wall_seconds: float


def _objectives_match(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6)


def _bench_mip_instances() -> list[tuple[str, Any]]:
    """(name, LinearProgram) pairs: one literal partition MIP per cell."""
    instances = []
    for cell in default_corpus():
        topology = cell.topology
        microbatch = (
            cell.config.microbatch_size or cell.model.default_microbatch_size
        )
        cost_model = CostModel(topology.gpu_spec, microbatch)
        n_gpus = topology.n_gpus
        lp, _assign = build_partition_mip(
            cell.model,
            cost_model,
            n_gpus,
            n_gpus,
            cell.config.n_microbatches or n_gpus,
            cell.config.bandwidth or topology.pcie_bandwidth,
            cost_model.usable_gpu_bytes(),
        )
        instances.append((f"{cell.name}/S{n_gpus}", lp))
    return instances


def _run_mip_rows() -> list[_MIPRow]:
    rows = []
    for name, lp in _bench_mip_instances():
        solver = BranchAndBoundSolver(presolve=True)
        started = time.perf_counter()
        ours = solver.solve(lp)
        wall = time.perf_counter() - started
        theirs = solve_milp_scipy(lp)
        parity = ours.status.value == theirs.status.value and (
            ours.status is not MIPStatus.OPTIMAL
            or _objectives_match(ours.objective, theirs.objective)
        )
        if ours.x is not None:
            warm = BranchAndBoundSolver(presolve=True).solve(
                lp, warm_start=WarmStartContext.from_mip(ours)
            )
            warm_nodes = warm.nodes_explored
            warm_identical = warm.x is not None and bool(
                np.array_equal(warm.x, ours.x)
            )
        else:
            warm_nodes = 0
            warm_identical = True
        form = lp.to_standard_form()
        rows.append(
            _MIPRow(
                name=name,
                n_vars=len(form.c),
                n_rows=form.a_ub.shape[0] + form.a_eq.shape[0],
                status=ours.status.value,
                objective=None if math.isnan(ours.objective) else ours.objective,
                ref_status=theirs.status.value,
                ref_objective=(
                    None if math.isnan(theirs.objective) else theirs.objective
                ),
                parity=parity,
                nodes=ours.nodes_explored,
                pivots=ours.pivots,
                cuts=ours.cuts_added,
                warm_nodes=warm_nodes,
                warm_identical=warm_identical,
                wall_seconds=round(wall, 4),
            )
        )
    return rows


def _run_partition_rows() -> list[dict[str, Any]]:
    rows = []
    previous: WarmStartContext | None = None
    for cell in default_corpus():
        topology = cell.topology
        microbatch = (
            cell.config.microbatch_size or cell.model.default_microbatch_size
        )
        cost_model = CostModel(topology.gpu_spec, microbatch)
        n_gpus = topology.n_gpus
        n_microbatches = cell.config.n_microbatches or n_gpus
        bandwidth = cell.config.bandwidth or topology.pcie_bandwidth
        started = time.perf_counter()
        cold = mip_partition(
            cell.model, cost_model, n_gpus, n_microbatches, bandwidth
        )
        wall = time.perf_counter() - started
        warm = mip_partition(
            cell.model,
            cost_model,
            n_gpus,
            n_microbatches,
            bandwidth,
            warm_start=previous if previous is not None else cold.partition,
        )
        rows.append(
            {
                "name": cell.name,
                "boundaries": list(cold.partition.boundaries),
                "step_seconds": cold.timings.step_seconds,
                "nodes": cold.nodes_explored,
                "optimal": cold.optimal,
                "warm_nodes": warm.nodes_explored,
                "warm_identical": (
                    warm.partition.boundaries == cold.partition.boundaries
                ),
                "wall_seconds": round(wall, 4),
            }
        )
        previous = WarmStartContext.from_partition(cold.partition)
    return rows


def run_bench() -> dict[str, Any]:
    """Run the full solver benchmark; returns the JSON document."""
    mip_rows = _run_mip_rows()
    partition_rows = _run_partition_rows()
    suite_after = None
    bench_suite = Path("BENCH_suite.json")
    if bench_suite.is_file():
        try:
            suite_doc = json.loads(bench_suite.read_text())
            # A three-pass (--baseline) suite document records the serial
            # uncached total under "baseline"; single-pass documents only
            # have the top-level total.
            suite_after = suite_doc.get("baseline", {}).get(
                "total_seconds", suite_doc["total_seconds"]
            )
        except (ValueError, KeyError):
            suite_after = None
    return {
        "schema": BENCH_SCHEMA,
        "suite_uncached": {
            "before_seconds": SUITE_BASELINE_SECONDS,
            "after_seconds": suite_after,
        },
        "mip": [dataclasses.asdict(row) for row in mip_rows],
        "partition": partition_rows,
    }


def write_bench(path: Path | str, document: dict[str, Any] | None = None) -> dict:
    """Run (if needed) and write the benchmark JSON to ``path``."""
    document = document if document is not None else run_bench()
    Path(path).write_text(json.dumps(document, indent=1, sort_keys=False) + "\n")
    return document


def compare_benchmarks(
    current: dict[str, Any], baseline: dict[str, Any]
) -> list[str]:
    """CI gate: regressions of ``current`` against the committed baseline.

    Returns a list of human-readable failures (empty = gate passes):

    * an instance whose ``parity`` was true is now false (objective-parity
      regression);
    * an instance's ``nodes`` grew beyond ``NODE_REGRESSION_RATIO`` times
      the baseline (node-count regression);
    * a warm-started re-solve stopped returning the cold solution.

    Instances present only on one side are reported as failures too — the
    corpus is part of the contract.  Wall times are never compared: they
    depend on the hardware the bench ran on.
    """
    failures: list[str] = []
    for section in ("mip", "partition"):
        base_rows = {row["name"]: row for row in baseline.get(section, [])}
        cur_rows = {row["name"]: row for row in current.get(section, [])}
        for name in sorted(base_rows.keys() | cur_rows.keys()):
            if name not in cur_rows:
                failures.append(f"{section}:{name}: instance missing from current run")
                continue
            if name not in base_rows:
                failures.append(f"{section}:{name}: instance missing from baseline")
                continue
            base, cur = base_rows[name], cur_rows[name]
            if base.get("parity", True) and not cur.get("parity", True):
                failures.append(
                    f"{section}:{name}: objective parity regressed "
                    f"(ours={cur.get('objective')} ref={cur.get('ref_objective')})"
                )
            if not cur.get("warm_identical", True):
                failures.append(
                    f"{section}:{name}: warm-started solve no longer matches cold"
                )
            base_nodes = base.get("nodes", 0)
            cur_nodes = cur.get("nodes", 0)
            if base_nodes > 0 and cur_nodes > NODE_REGRESSION_RATIO * base_nodes:
                failures.append(
                    f"{section}:{name}: node count regressed "
                    f"{base_nodes} -> {cur_nodes} "
                    f"(>{NODE_REGRESSION_RATIO:.2f}x)"
                )
    return failures
