"""Chaos harness: the fault corpus crossed with the verification corpus.

``repro bench chaos`` runs every :mod:`repro.check` corpus cell under a
fixed menu of fault scenarios and *proves* recovery rather than eyeballing
it:

* every executed trace (faulted, degraded or re-planned) must pass
  :func:`repro.check.trace_check.sanitize_run`;
* every post-dropout re-plan must pass
  :func:`repro.check.plan_check.check_plan` and
  :func:`repro.check.mapping_check.check_mapping` on the surviving
  topology;
* infeasible recovery (the model cannot fit on N-1 GPUs) is reported as a
  typed outcome, not a crash.

The report carries goodput (samples per second over an ``n_steps``
training window, charging wasted work and time-to-recover) and is fully
deterministic: same seed + schedule = byte-identical JSON.  No wall-clock
values enter the report — re-planning latency uses the modeled budget from
:class:`repro.faults.replan.ReplanCostModel`.  Each result carries the
trace fingerprint of its faulted (or recovered) step, which the bench rows
(:func:`bench_rows`) pin.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from typing import Any

from repro.check.corpus import CorpusCell, default_corpus
from repro.check.findings import CheckReport
from repro.check.mapping_check import check_mapping
from repro.check.plan_check import check_plan
from repro.check.trace_check import sanitize_run
from repro.core.api import MobiusPlanReport, plan_mobius
from repro.core.partition import PlanInfeasibleError
from repro.core.plan import ExecutionPlan
from repro.faults.models import (
    FaultSchedule,
    FlakyTransfers,
    GpuDropout,
    LinkDegradation,
    StragglerGpu,
)
from repro.faults.recovery import RetryPolicy, run_step
from repro.faults.replan import ReplanCostModel, replan_after_dropout
from repro.perf.bench import row
from repro.perf.fingerprint import fingerprint

__all__ = [
    "SCENARIOS",
    "build_schedule",
    "ChaosCellResult",
    "ChaosReport",
    "run_chaos_cell",
    "run_chaos",
    "bench_rows",
]

#: The fault menu every corpus cell is run through.
SCENARIOS = ("clean", "dropout", "degraded-link", "straggler", "flaky")

#: Dropout strikes mid-step: 1.5 clean steps into the training window.
_DROPOUT_AT_STEPS = 1.5
#: Persistent degraded link runs at half bandwidth (a x16 -> x8 retrain).
_DEGRADED_FACTOR = 0.5
#: Straggler GPU computes 1.5x slower for the whole run.
_STRAGGLER_SLOWDOWN = 1.5
#: Per-attempt transfer failure probability in the flaky scenario.
_FLAKY_RATE = 0.08


def build_schedule(
    scenario: str,
    cell: CorpusCell,
    seed: int,
    clean_step_seconds: float,
    plan: ExecutionPlan,
) -> FaultSchedule:
    """The fault schedule for one (scenario, cell) pair.

    Faults reference concrete resources of the cell: the dropout kills the
    last GPU, the degraded link is root complex 0's uplink (shared by every
    GPU in group 0), and the straggler is the GPU executing the plan's last
    stage — guaranteed real compute on the critical path (the first stage
    can be a zero-FLOP embedding stage, where a slowdown would be free).
    """
    if scenario == "clean":
        return FaultSchedule(seed)
    if scenario == "dropout":
        return FaultSchedule(
            seed,
            (
                GpuDropout(
                    gpu=cell.topology.n_gpus - 1,
                    time=_DROPOUT_AT_STEPS * clean_step_seconds,
                ),
            ),
        )
    if scenario == "degraded-link":
        return FaultSchedule(
            seed, (LinkDegradation(edge=("sw0", "rc0"), factor=_DEGRADED_FACTOR),)
        )
    if scenario == "straggler":
        straggler = plan.mapping.gpu_of_stage(plan.n_stages - 1)
        return FaultSchedule(
            seed, (StragglerGpu(gpu=straggler, slowdown=_STRAGGLER_SLOWDOWN),)
        )
    if scenario == "flaky":
        return FaultSchedule(seed, (FlakyTransfers(failure_rate=_FLAKY_RATE),))
    raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")


@dataclasses.dataclass(frozen=True)
class ChaosCellResult:
    """Outcome of one (corpus cell, fault scenario) pair.

    Attributes:
        cell: Corpus cell name.
        scenario: Fault scenario name.
        status: ``"ok"`` (ran and recovered) or ``"infeasible"`` (dropout
            recovery impossible on the surviving GPUs, a typed outcome).
        degraded: Whether any step fell back to degraded-mode execution.
        n_retries: Successfully retried transfer attempts.
        clean_step_seconds: Fault-free step time for this cell.
        faulted_step_seconds: Steady-state step time under the fault
            (post-recovery step time for dropout).
        time_to_recover: Re-plan + state-migration latency (dropout only).
        samples: Samples processed over the training window.
        total_seconds: Wall time of the window, charging wasted work and
            recovery.
        goodput: ``samples / total_seconds``.
        goodput_clean: Fault-free samples/s for the same cell.
        check_errors: Error-severity findings from trace/plan/mapping
            checkers (0 for a healthy run).
        fingerprint: Trace fingerprint of the faulted step (the recovered
            step for dropout); ``None`` when recovery is infeasible.
        detail: Human-readable note (e.g. the infeasibility message).
    """

    cell: str
    scenario: str
    status: str
    degraded: bool
    n_retries: int
    clean_step_seconds: float
    faulted_step_seconds: float
    time_to_recover: float
    samples: float
    total_seconds: float
    goodput: float
    goodput_clean: float
    check_errors: int
    fingerprint: str | None
    detail: str = ""

    @property
    def ok(self) -> bool:
        """A cell passes if it ran checker-clean or was typed-infeasible."""
        return self.check_errors == 0 and self.status in ("ok", "infeasible")


@dataclasses.dataclass(frozen=True)
class ChaosReport:
    """The full chaos matrix: corpus cells x fault scenarios."""

    seed: int
    n_steps: int
    results: tuple[ChaosCellResult, ...]


def run_chaos_cell(
    cell: CorpusCell,
    scenario: str,
    *,
    seed: int = 0,
    n_steps: int = 4,
    retry_policy: RetryPolicy = RetryPolicy(),
    replan_cost: ReplanCostModel = ReplanCostModel(),
    plan_report: MobiusPlanReport | None = None,
) -> ChaosCellResult:
    """Run one corpus cell under one fault scenario and verify recovery."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if plan_report is None:
        plan_report = plan_mobius(cell.model, cell.topology, cell.config)
    plan = plan_report.plan
    cost_model = plan_report.cost_model
    exec_kwargs = dict(
        retry_policy=retry_policy,
        prefetch=cell.config.prefetch,
        use_priorities=cell.config.use_priorities,
    )

    clean = run_step(plan, cell.topology, cost_model, FaultSchedule(seed), **exec_kwargs)
    t_clean = clean.step_seconds
    samples_per_step = plan.n_microbatches * plan.microbatch_size
    goodput_clean = samples_per_step / t_clean

    schedule = build_schedule(scenario, cell, seed, t_clean, plan)
    checks = CheckReport()

    if not schedule.dropouts:
        step = run_step(plan, cell.topology, cost_model, schedule, **exec_kwargs)
        checks.extend(sanitize_run(step.tasks, step.times))
        samples = float(n_steps * samples_per_step)
        total = n_steps * step.step_seconds
        return ChaosCellResult(
            cell=cell.name,
            scenario=scenario,
            status="ok",
            degraded=step.degraded,
            n_retries=step.n_retries,
            clean_step_seconds=t_clean,
            faulted_step_seconds=step.step_seconds,
            time_to_recover=0.0,
            samples=samples,
            total_seconds=total,
            goodput=samples / total,
            goodput_clean=goodput_clean,
            check_errors=len(checks.errors),
            fingerprint=fingerprint(step.trace),
        )

    # Dropout: steps completed before the fault survive; the in-flight step
    # is wasted; then recovery (re-plan + migration) and the remaining
    # steps on the surviving GPUs.
    dropout = schedule.dropouts[0]
    completed = min(n_steps, int(dropout.time // t_clean))
    remaining = n_steps - completed
    try:
        replan = replan_after_dropout(
            cell.model,
            cell.topology,
            cell.config,
            dropout.gpu,
            cost=replan_cost,
            old_plan_report=plan_report,
        )
    except PlanInfeasibleError as err:
        samples = float(completed * samples_per_step)
        total = dropout.time if remaining else completed * t_clean
        return ChaosCellResult(
            cell=cell.name,
            scenario=scenario,
            status="infeasible",
            degraded=False,
            n_retries=0,
            clean_step_seconds=t_clean,
            faulted_step_seconds=float("nan"),
            time_to_recover=0.0,
            samples=samples,
            total_seconds=total,
            goodput=samples / total if total else 0.0,
            goodput_clean=goodput_clean,
            check_errors=0,
            fingerprint=None,
            detail=str(err),
        )

    new_report = replan.plan_report
    new_plan = new_report.plan
    checks.extend(check_plan(new_plan, new_report.cost_model))
    checks.extend(check_mapping(new_plan.mapping, replan.topology, new_plan.n_stages))

    recovered = run_step(
        new_plan,
        replan.topology,
        new_report.cost_model,
        schedule.without_dropouts(),
        **exec_kwargs,
    )
    checks.extend(sanitize_run(recovered.tasks, recovered.times))

    new_samples_per_step = new_plan.n_microbatches * new_plan.microbatch_size
    samples = float(
        completed * samples_per_step + remaining * new_samples_per_step
    )
    total = (
        dropout.time + replan.time_to_recover + remaining * recovered.step_seconds
        if remaining
        else completed * t_clean
    )
    return ChaosCellResult(
        cell=cell.name,
        scenario=scenario,
        status="ok",
        degraded=recovered.degraded,
        n_retries=recovered.n_retries,
        clean_step_seconds=t_clean,
        faulted_step_seconds=recovered.step_seconds,
        time_to_recover=replan.time_to_recover,
        samples=samples,
        total_seconds=total,
        goodput=samples / total,
        goodput_clean=goodput_clean,
        check_errors=len(checks.errors),
        fingerprint=fingerprint(recovered.trace),
    )


def run_chaos(
    cells: Sequence[CorpusCell] | None = None,
    *,
    seed: int = 0,
    n_steps: int = 4,
    scenarios: Sequence[str] = SCENARIOS,
) -> ChaosReport:
    """Run the full chaos matrix and aggregate one report.

    Args:
        cells: Corpus cells (the :mod:`repro.check` default corpus when
            ``None``).
        seed: Fault-schedule seed; determines every flaky-transfer coin.
        n_steps: Training-window length used for goodput accounting.
        scenarios: Scenario subset to run.
    """
    results = []
    for cell in cells if cells is not None else default_corpus():
        plan_report = plan_mobius(cell.model, cell.topology, cell.config)
        for scenario in scenarios:
            results.append(
                run_chaos_cell(
                    cell,
                    scenario,
                    seed=seed,
                    n_steps=n_steps,
                    plan_report=plan_report,
                )
            )
    return ChaosReport(seed=seed, n_steps=n_steps, results=tuple(results))


def bench_rows(jobs: int | None = None) -> list[dict[str, Any]]:
    """The ``chaos`` bench rows; ``jobs`` is unused (cells run in-process)."""
    return [
        row(
            f"{result.cell}/{result.scenario}",
            fingerprint=result.fingerprint,
            checks={"ok": result.ok},
        )
        for result in run_chaos().results
    ]
