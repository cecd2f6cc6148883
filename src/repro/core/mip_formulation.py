"""The paper's partitioning MIP in its literal boolean form (§3.2).

The production partitioner (:mod:`repro.core.partition`) searches stage
*boundaries* depth first; this module instead builds the MIP the paper
writes down — boolean assignment variables ``B[i][j]`` ("layer i is in
stage j", Table 2) with the full constraint system (Eqs. 4-11) — and
solves it with HiGHS (:func:`repro.solver.scipy_backend.solve_milp_scipy`).
It exists to validate the production path: on the check corpus both must
return the same optimal step time and boundaries (asserted by the test
suite).

Formulation notes:

* Empty logical stages make pipeline-order constraints awkward (the paper
  glosses over this); we instead solve one MIP per stage count ``S`` with
  all stages non-empty and take the best — by contiguity these sub-problems
  enumerate exactly the paper's "existing stage" patterns.
* Contiguity is enforced through each layer's stage index being
  non-decreasing in steps of at most 1.
* ``max`` terms in the memory model (transient rolling buffer, working set)
  are linearised with auxiliary variables and big-M indicator constraints.
"""

from __future__ import annotations

import dataclasses
import math
import time

from repro.core.plan import Partition
from repro.models.costmodel import CostModel
from repro.models.spec import ModelSpec
from repro.solver.model import LinearProgram
from repro.solver.scipy_backend import MIPSolution, MIPStatus, solve_milp_scipy

__all__ = ["FormulationResult", "build_partition_mip", "solve_partition_mip"]

#: HiGHS wall-clock limit per stage count, in seconds.  A count that hits
#: it returns its incumbent, and :attr:`FormulationResult.optimal` is false.
TIME_LIMIT_PER_STAGE = 20.0


@dataclasses.dataclass
class FormulationResult:
    """Outcome of the literal-MIP solve.

    ``optimal`` is true only when HiGHS proved every stage count optimal or
    infeasible; a count stopped by :data:`TIME_LIMIT_PER_STAGE` leaves an
    unproven incumbent in ``per_stage_solutions`` and makes it false.
    """

    partition: Partition | None
    step_seconds: float
    n_stages: int
    solve_seconds: float
    per_stage_solutions: dict[int, float]
    optimal: bool


def build_partition_mip(
    model: ModelSpec,
    cost_model: CostModel,
    n_stages: int,
    n_gpus: int,
    n_microbatches: int,
    bandwidth: float,
    gpu_memory: int,
) -> tuple[LinearProgram, list[list]]:
    """Construct the Eqs. 3-11 MIP for a fixed non-empty stage count.

    Returns:
        ``(program, assignment)`` where ``assignment[i][j]`` is the boolean
        variable placing layer ``i`` in stage ``j``.
    """
    layers = [cost_model.layer_cost(layer) for layer in model.layers]
    n_layers = len(layers)
    if not 1 <= n_stages <= n_layers:
        raise ValueError(f"n_stages must be in [1, {n_layers}], got {n_stages}")
    m = n_microbatches
    lp = LinearProgram(f"mobius-partition-S{n_stages}")

    # All byte quantities are expressed in GB (and bandwidth in GB/s) so the
    # constraint matrix is well conditioned — mixing raw bytes (~1e9) with
    # seconds (~1e-2) makes MILP solvers accept suboptimal vertices.
    scale = 1e-9
    bandwidth = bandwidth * scale
    gpu_memory = gpu_memory * scale
    param = [c.param_bytes * scale for c in layers]
    act = [c.activation_bytes * scale for c in layers]
    act_prev = [act[max(i - 1, 0)] for i in range(n_layers)]
    work = [c.working_bytes * scale for c in layers]
    t_fwd_layer = [c.fwd_seconds for c in layers]
    t_bwd_layer = [c.bwd_seconds for c in layers]

    # --- assignment booleans and structural indicators -----------------
    assign = [
        [lp.add_binary(f"B[{i}][{j}]") for j in range(n_stages)] for i in range(n_layers)
    ]
    first = [
        [lp.add_binary(f"first[{i}][{j}]") for j in range(n_stages)]
        for i in range(n_layers)
    ]
    last = [
        [lp.add_binary(f"last[{i}][{j}]") for j in range(n_stages)]
        for i in range(n_layers)
    ]
    for i in range(n_layers):
        lp.add_constraint(sum(assign[i]) == 1, f"layer{i}-one-stage")
    for j in range(n_stages):
        lp.add_constraint(sum(assign[i][j] for i in range(n_layers)) >= 1, f"stage{j}-nonempty")
        lp.add_constraint(sum(first[i][j] for i in range(n_layers)) == 1)
        lp.add_constraint(sum(last[i][j] for i in range(n_layers)) == 1)

    # Contiguity: stage index of consecutive layers rises by 0 or 1.
    def stage_index(i: int):
        return sum(j * assign[i][j] for j in range(n_stages))

    lp.add_constraint(stage_index(0) == 0)
    lp.add_constraint(stage_index(n_layers - 1) == n_stages - 1)
    for i in range(n_layers - 1):
        lp.add_constraint(stage_index(i + 1) - stage_index(i) >= 0)
        lp.add_constraint(stage_index(i + 1) - stage_index(i) <= 1)

    # first/last indicators tied to assignment transitions.
    for j in range(n_stages):
        for i in range(n_layers):
            lp.add_constraint(first[i][j] <= assign[i][j])
            lp.add_constraint(last[i][j] <= assign[i][j])
            prev_in = assign[i - 1][j] if i > 0 else 0
            next_in = assign[i + 1][j] if i + 1 < n_layers else 0
            lp.add_constraint(first[i][j] >= assign[i][j] - prev_in)
            lp.add_constraint(last[i][j] >= assign[i][j] - next_in)
            if i > 0:
                lp.add_constraint(first[i][j] <= 1 - assign[i - 1][j])
            if i + 1 < n_layers:
                lp.add_constraint(last[i][j] <= 1 - assign[i + 1][j])

    # --- stage aggregates (all linear in the booleans) ------------------
    def stage_sum(values, j):
        return sum(values[i] * assign[i][j] for i in range(n_layers))

    def boundary_sum(values, indicator, j):
        return sum(values[i] * indicator[i][j] for i in range(n_layers))

    t_f = [stage_sum(t_fwd_layer, j) for j in range(n_stages)]
    t_b = [stage_sum(t_bwd_layer, j) for j in range(n_stages)]
    params_stage = [stage_sum(param, j) for j in range(n_stages)]
    act_out = [boundary_sum(act, last, j) for j in range(n_stages)]
    act_in = [boundary_sum(act_prev, first, j) for j in range(n_stages)]

    # Rolling-buffer and working-set maxima, linearised.
    max_mem = float(sum(param) + m * max(act) + max(act_prev[i] + act[i] + work[i] for i in range(n_layers)))
    rolling = [lp.add_var(f"roll[{j}]", lb=0.0, ub=max_mem) for j in range(n_stages)]
    peak_work = [lp.add_var(f"work[{j}]", lb=0.0, ub=max_mem) for j in range(n_stages)]
    for j in range(n_stages):
        for i in range(n_layers):
            window = act_prev[i] + act[i] + work[i]
            lp.add_constraint(rolling[j] >= window - max_mem * (1 - assign[i][j]))
            lp.add_constraint(peak_work[j] >= work[i] - max_mem * (1 - assign[i][j]))

    mem_fwd = [
        params_stage[j] + m * act_in[j] + rolling[j] for j in range(n_stages)
    ]
    intra_act = [stage_sum(act, j) for j in range(n_stages)]
    mem_bwd = [
        params_stage[j] * 2 + m * act_in[j] + intra_act[j] + peak_work[j] + act_out[j]
        for j in range(n_stages)
    ]
    for j in range(n_stages):
        lp.add_constraint(mem_fwd[j] <= gpu_memory, f"eq4-fwd-{j}")
        lp.add_constraint(mem_bwd[j] <= gpu_memory, f"eq4-bwd-{j}")

    # --- schedule variables ---------------------------------------------
    tf = [[lp.add_var(f"tf[{j}][{mb}]", lb=0.0) for mb in range(m)] for j in range(n_stages)]
    tb = [[lp.add_var(f"tb[{j}][{mb}]", lb=0.0) for mb in range(m)] for j in range(n_stages)]

    # Eq. 10: serial microbatches.
    for j in range(n_stages):
        for mb in range(1, m):
            lp.add_constraint(tf[j][mb] >= tf[j][mb - 1] + t_f[j])
            lp.add_constraint(tb[j][mb] >= tb[j][mb - 1] + t_b[j])

    # Eq. 8: activation / activation-gradient arrival.
    for j in range(1, n_stages):
        for mb in range(m):
            lp.add_constraint(
                tf[j][mb] >= tf[j - 1][mb] + t_f[j - 1] + act_out[j - 1] / bandwidth
            )
    for j in range(n_stages - 1):
        for mb in range(m):
            lp.add_constraint(
                tb[j][mb] >= tb[j + 1][mb] + t_b[j + 1] + act_in[j + 1] / bandwidth
            )

    # Eqs. 5, 6, 9 (+ implicit same-GPU serialisation): stage readiness.
    pf = [lp.add_var(f"pf[{j}]", lb=0.0) for j in range(n_stages)]
    pb = [lp.add_var(f"pb[{j}]", lb=0.0) for j in range(n_stages)]
    for j in range(n_stages):
        if j < n_gpus:
            lp.add_constraint(tf[j][0] >= params_stage[j] / bandwidth)
        else:
            end_prev = tf[j - n_gpus][m - 1] + t_f[j - n_gpus]
            d_prev = t_f[j - n_gpus] + tf[j - n_gpus][m - 1] - tf[j - n_gpus][0]
            lp.add_constraint(pf[j] <= params_stage[j])
            lp.add_constraint(pf[j] <= gpu_memory - mem_fwd[j - n_gpus])
            lp.add_constraint(pf[j] <= bandwidth * d_prev)
            lp.add_constraint(
                tf[j][0] >= end_prev + (params_stage[j] - pf[j]) / bandwidth
            )
            lp.add_constraint(tf[j][0] >= end_prev)

        if j >= n_stages - n_gpus:
            # Resident tail: backward starts after own forward (Eq. 11).
            lp.add_constraint(tb[j][0] >= tf[j][m - 1] + t_f[j])
        else:
            upload = params_stage[j] + m * act_in[j]
            end_next = tb[j + n_gpus][m - 1] + t_b[j + n_gpus]
            d_next = t_b[j + n_gpus] + tb[j + n_gpus][m - 1] - tb[j + n_gpus][0]
            lp.add_constraint(pb[j] <= upload)
            lp.add_constraint(pb[j] <= gpu_memory - mem_bwd[j + n_gpus])
            lp.add_constraint(pb[j] <= bandwidth * d_next)
            lp.add_constraint(tb[j][0] >= end_next + (upload - pb[j]) / bandwidth)
            lp.add_constraint(tb[j][0] >= end_next)

    # Objective (Eq. 3): first stage's backward end on the last microbatch.
    objective = tb[0][m - 1] + t_b[0]
    lp.set_objective(objective, minimize=True)
    return lp, assign


def solve_partition_mip(
    model: ModelSpec,
    cost_model: CostModel,
    n_gpus: int,
    n_microbatches: int,
    bandwidth: float,
    *,
    gpu_memory: int | None = None,
    stage_counts: list[int] | None = None,
) -> FormulationResult:
    """Solve the literal MIP with HiGHS over a range of stage counts; best wins."""
    if gpu_memory is None:
        gpu_memory = cost_model.usable_gpu_bytes()
    n_layers = model.n_layers
    stage_counts = stage_counts or list(range(max(1, n_gpus), n_layers + 1))

    started = time.perf_counter()
    best: tuple[float, int, list[int]] | None = None
    per_stage: dict[int, float] = {}
    optimal = True
    for s in stage_counts:
        lp, assign = build_partition_mip(
            model, cost_model, s, n_gpus, n_microbatches, bandwidth, gpu_memory
        )
        solution = solve_milp_scipy(lp, time_limit=TIME_LIMIT_PER_STAGE)
        optimal &= solution.status in (MIPStatus.OPTIMAL, MIPStatus.INFEASIBLE)
        if not solution.ok:
            per_stage[s] = math.inf
            continue
        per_stage[s] = solution.objective
        boundaries = _extract_boundaries(solution, assign)
        if best is None or solution.objective < best[0]:
            best = (solution.objective, s, boundaries)

    if best is None:
        return FormulationResult(
            None, math.inf, 0, time.perf_counter() - started, per_stage, optimal
        )
    objective, s, boundaries = best
    return FormulationResult(
        partition=Partition(model, tuple(boundaries)),
        step_seconds=objective,
        n_stages=s,
        solve_seconds=time.perf_counter() - started,
        per_stage_solutions=per_stage,
        optimal=optimal,
    )


def _extract_boundaries(solution: MIPSolution, assign) -> list[int]:
    n_layers = len(assign)
    n_stages = len(assign[0])
    stage_of = []
    for i in range(n_layers):
        values = [solution.x[assign[i][j].index] for j in range(n_stages)]
        stage_of.append(max(range(n_stages), key=lambda j: values[j]))
    return [i for i in range(1, n_layers) if stage_of[i] != stage_of[i - 1]]
