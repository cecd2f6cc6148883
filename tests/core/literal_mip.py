"""The paper's partitioning MIP in its literal boolean form (§3.2), as a
test oracle.

The planner (:mod:`repro.core.partition`) searches stage *boundaries*
depth first; this module instead builds the MIP the paper writes down —
boolean assignment variables ``B[i][j]`` ("layer i is in stage j",
Table 2) with the full constraint system (Eqs. 3-11) — and solves it with
HiGHS through :func:`scipy.optimize.milp`.  The parity tests assert that
both return the same optimal step time and boundaries.

Formulation notes:

* Empty logical stages make pipeline-order constraints awkward (the paper
  glosses over this); we instead solve one MIP per stage count ``S`` with
  all stages non-empty and take the best — by contiguity these sub-problems
  enumerate exactly the paper's "existing stage" patterns.
* Contiguity is enforced through each layer's stage index being
  non-decreasing in steps of at most 1.
* ``max`` terms in the memory model (transient rolling buffer, working set)
  are linearised with auxiliary variables and big-M indicator constraints.

A linear expression is a ``{column: coefficient}`` dict and a block of
columns is a numpy index array (``assign[i, j]``, ``tf[j, mb]``).  Each
row is ``lo <= expr <= hi``, with the expression's constants moved into
the bounds.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp

from repro.core.plan import Partition
from repro.models.costmodel import CostModel
from repro.models.spec import ModelSpec

__all__ = [
    "TIME_LIMIT_PER_STAGE",
    "FormulationResult",
    "MIP",
    "build_partition_mip",
    "solve_partition_mip",
]

#: HiGHS wall-clock limit per stage count, in seconds.  A count that hits
#: it returns its incumbent, and :attr:`FormulationResult.optimal` is false.
TIME_LIMIT_PER_STAGE = 20.0

Expr = dict[int, float]


def _lin(*terms: tuple[float, Expr | int]) -> Expr:
    """``sum(coef * expr)`` over ``(coef, expr)`` terms; an ``expr`` is an
    expression dict or a single column index."""
    out: Expr = {}
    for coef, expr in terms:
        items = expr.items() if isinstance(expr, dict) else ((expr, 1.0),)
        for column, value in items:
            column = int(column)
            out[column] = out.get(column, 0.0) + coef * value
    return out


def _dot(columns: np.ndarray, coefs=None) -> Expr:
    """``sum(coefs[k] * x[columns[k]])``; all-ones coefficients by default."""
    if coefs is None:
        coefs = [1.0] * len(columns)
    return _lin(*((float(c), int(column)) for column, c in zip(columns, coefs)))


class MIP:
    """Columns (upper bounds, integrality), rows and objective of one MIP;
    every column's lower bound is 0."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.ub: list[float] = []
        self.integer: list[bool] = []
        self.rows: list[Expr] = []
        self.lo: list[float] = []
        self.hi: list[float] = []
        self.objective: Expr = {}

    def columns(self, *shape: int, ub: float = math.inf, integer: bool = False) -> np.ndarray:
        """A new block of columns with bounds ``[0, ub]``, indexed by ``shape``."""
        start, count = len(self.ub), math.prod(shape)
        self.ub += [ub] * count
        self.integer += [integer] * count
        return np.arange(start, start + count).reshape(shape)

    def binaries(self, *shape: int) -> np.ndarray:
        return self.columns(*shape, ub=1.0, integer=True)

    def row(self, expr: Expr, lo: float = -math.inf, hi: float = math.inf) -> None:
        self.rows.append(expr)
        self.lo.append(lo)
        self.hi.append(hi)

    def solve(self, time_limit: float) -> OptimizeResult:
        """HiGHS's result; with a point, its integer columns are rounded and
        ``fun`` is the objective there."""
        entries = [
            (r, column, coef)
            for r, expr in enumerate(self.rows)
            for column, coef in expr.items()
            if coef != 0.0
        ]
        rows, columns, coefs = zip(*entries)
        matrix = sparse.csr_matrix(
            (coefs, (rows, columns)), shape=(len(self.rows), len(self.ub))
        )
        c = np.zeros(len(self.ub))
        c[list(self.objective)] = list(self.objective.values())
        integer = np.array(self.integer)
        result = milp(
            c,
            constraints=LinearConstraint(matrix, self.lo, self.hi),
            bounds=Bounds(0.0, self.ub),
            integrality=integer.astype(int),
            options={"time_limit": time_limit},
        )
        if result.x is not None:
            result.x[integer] = np.round(result.x[integer])
            result.fun = float(c @ result.x)
        return result


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
) -> tuple[MIP, np.ndarray]:
    """Construct the Eqs. 3-11 MIP for a fixed non-empty stage count.

    Returns:
        ``(mip, assign)`` where column ``assign[i, j]`` is the boolean
        placing layer ``i`` in stage ``j``.
    """
    layers = [cost_model.layer_cost(layer) for layer in model.layers]
    n_layers = len(layers)
    if not 1 <= n_stages <= n_layers:
        raise ValueError(f"n_stages must be in [1, {n_layers}], got {n_stages}")
    m = n_microbatches
    mip = MIP(f"mobius-partition-S{n_stages}")

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
    assign = mip.binaries(n_layers, n_stages)
    first = mip.binaries(n_layers, n_stages)
    last = mip.binaries(n_layers, n_stages)
    for i in range(n_layers):
        mip.row(_dot(assign[i]), 1, 1)  # each layer in exactly one stage
    for j in range(n_stages):
        mip.row(_dot(assign[:, j]), lo=1)  # no empty stage
        mip.row(_dot(first[:, j]), 1, 1)
        mip.row(_dot(last[:, j]), 1, 1)

    # Contiguity: stage index of consecutive layers rises by 0 or 1.
    stage_index = [_dot(assign[i], range(n_stages)) for i in range(n_layers)]
    mip.row(stage_index[0], 0, 0)
    mip.row(stage_index[-1], n_stages - 1, n_stages - 1)
    for i in range(n_layers - 1):
        mip.row(_lin((1, stage_index[i + 1]), (-1, stage_index[i])), 0, 1)

    # first/last indicators tied to assignment transitions.
    for j in range(n_stages):
        for i in range(n_layers):
            for indicator, other in ((first, i - 1), (last, i + 1)):
                mip.row(_lin((1, indicator[i, j]), (-1, assign[i, j])), hi=0)
                if 0 <= other < n_layers:
                    other_in = assign[other, j]
                    mip.row(
                        _lin((1, indicator[i, j]), (-1, assign[i, j]), (1, other_in)),
                        lo=0,
                    )
                    mip.row(_lin((1, indicator[i, j]), (1, other_in)), hi=1)
                else:
                    mip.row(_lin((1, indicator[i, j]), (-1, assign[i, j])), lo=0)

    # --- stage aggregates (all linear in the booleans) ------------------
    t_f = [_dot(assign[:, j], t_fwd_layer) for j in range(n_stages)]
    t_b = [_dot(assign[:, j], t_bwd_layer) for j in range(n_stages)]
    params_stage = [_dot(assign[:, j], param) for j in range(n_stages)]
    intra_act = [_dot(assign[:, j], act) for j in range(n_stages)]
    act_out = [_dot(last[:, j], act) for j in range(n_stages)]
    act_in = [_dot(first[:, j], act_prev) for j in range(n_stages)]

    # Rolling-buffer and working-set maxima, linearised:
    # roll[j] >= window[i] - max_mem * (1 - B[i][j]), and so for work[j].
    max_mem = float(sum(param) + m * max(act) + max(act_prev[i] + act[i] + work[i] for i in range(n_layers)))
    rolling = mip.columns(n_stages, ub=max_mem)
    peak_work = mip.columns(n_stages, ub=max_mem)
    for j in range(n_stages):
        for i in range(n_layers):
            window = act_prev[i] + act[i] + work[i]
            mip.row(_lin((1, rolling[j]), (-max_mem, assign[i, j])), lo=window - max_mem)
            mip.row(_lin((1, peak_work[j]), (-max_mem, assign[i, j])), lo=work[i] - max_mem)

    # Eq. 4: forward and backward peak memory fit the GPU.
    mem_fwd = [
        _lin((1, params_stage[j]), (m, act_in[j]), (1, rolling[j])) for j in range(n_stages)
    ]
    mem_bwd = [
        _lin(
            (2, params_stage[j]), (m, act_in[j]), (1, intra_act[j]),
            (1, peak_work[j]), (1, act_out[j]),
        )
        for j in range(n_stages)
    ]
    for j in range(n_stages):
        mip.row(mem_fwd[j], hi=gpu_memory)
        mip.row(mem_bwd[j], hi=gpu_memory)

    # --- schedule variables ---------------------------------------------
    tf = mip.columns(n_stages, m)
    tb = mip.columns(n_stages, m)

    # Eq. 10: serial microbatches.
    for j in range(n_stages):
        for mb in range(1, m):
            mip.row(_lin((1, tf[j, mb]), (-1, tf[j, mb - 1]), (-1, t_f[j])), lo=0)
            mip.row(_lin((1, tb[j, mb]), (-1, tb[j, mb - 1]), (-1, t_b[j])), lo=0)

    # Eq. 8: activation / activation-gradient arrival.
    for j in range(1, n_stages):
        for mb in range(m):
            arrival = _lin(
                (1, tf[j - 1, mb]), (1, t_f[j - 1]), (1 / bandwidth, act_out[j - 1])
            )
            mip.row(_lin((1, tf[j, mb]), (-1, arrival)), lo=0)
    for j in range(n_stages - 1):
        for mb in range(m):
            arrival = _lin(
                (1, tb[j + 1, mb]), (1, t_b[j + 1]), (1 / bandwidth, act_in[j + 1])
            )
            mip.row(_lin((1, tb[j, mb]), (-1, arrival)), lo=0)

    # Eqs. 5, 6, 9 (+ implicit same-GPU serialisation): stage readiness.
    # pf/pb are the bytes prefetched while the GPU's previous stage runs.
    pf = mip.columns(n_stages)
    pb = mip.columns(n_stages)
    for j in range(n_stages):
        if j < n_gpus:
            mip.row(_lin((1, tf[j, 0]), (-1 / bandwidth, params_stage[j])), lo=0)
        else:
            k = j - n_gpus
            end_prev = _lin((1, tf[k, m - 1]), (1, t_f[k]))
            d_prev = _lin((1, t_f[k]), (1, tf[k, m - 1]), (-1, tf[k, 0]))
            mip.row(_lin((1, pf[j]), (-1, params_stage[j])), hi=0)
            mip.row(_lin((1, pf[j]), (1, mem_fwd[k])), hi=gpu_memory)
            mip.row(_lin((1, pf[j]), (-bandwidth, d_prev)), hi=0)
            load = _lin((1, params_stage[j]), (-1, pf[j]))
            mip.row(_lin((1, tf[j, 0]), (-1, end_prev), (-1 / bandwidth, load)), lo=0)
            mip.row(_lin((1, tf[j, 0]), (-1, end_prev)), lo=0)

        if j >= n_stages - n_gpus:
            # Resident tail: backward starts after own forward (Eq. 11).
            mip.row(_lin((1, tb[j, 0]), (-1, tf[j, m - 1]), (-1, t_f[j])), lo=0)
        else:
            k = j + n_gpus
            upload = _lin((1, params_stage[j]), (m, act_in[j]))
            end_next = _lin((1, tb[k, m - 1]), (1, t_b[k]))
            d_next = _lin((1, t_b[k]), (1, tb[k, m - 1]), (-1, tb[k, 0]))
            mip.row(_lin((1, pb[j]), (-1, upload)), hi=0)
            mip.row(_lin((1, pb[j]), (1, mem_bwd[k])), hi=gpu_memory)
            mip.row(_lin((1, pb[j]), (-bandwidth, d_next)), hi=0)
            load = _lin((1, upload), (-1, pb[j]))
            mip.row(_lin((1, tb[j, 0]), (-1, end_next), (-1 / bandwidth, load)), lo=0)
            mip.row(_lin((1, tb[j, 0]), (-1, end_next)), lo=0)

    # Eq. 3, the objective: first stage's backward end on the last microbatch.
    mip.objective = _lin((1, tb[0, m - 1]), (1, t_b[0]))
    return mip, assign


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

    best: tuple[float, int, list[int]] | None = None
    per_stage: dict[int, float] = {}
    optimal = True
    for s in stage_counts:
        mip, assign = build_partition_mip(
            model, cost_model, s, n_gpus, n_microbatches, bandwidth, gpu_memory
        )
        result = mip.solve(TIME_LIMIT_PER_STAGE)
        # HiGHS status 0: proven optimal; 2: proven infeasible.
        optimal &= result.status in (0, 2)
        if result.x is None:
            per_stage[s] = math.inf
            continue
        per_stage[s] = result.fun
        stage_of = result.x[assign].argmax(axis=1)
        boundaries = [i for i in range(1, n_layers) if stage_of[i] != stage_of[i - 1]]
        if best is None or result.fun < best[0]:
            best = (result.fun, s, boundaries)

    if best is None:
        return FormulationResult(None, math.inf, 0, per_stage, optimal)
    objective, s, boundaries = best
    return FormulationResult(
        partition=Partition(model, tuple(boundaries)),
        step_seconds=objective,
        n_stages=s,
        per_stage_solutions=per_stage,
        optimal=optimal,
    )
