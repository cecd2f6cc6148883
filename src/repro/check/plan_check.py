"""Static verification of an :class:`~repro.core.plan.ExecutionPlan`.

The MIP partitioner promises the paper's memory constraints analytically;
this checker replays a finished plan against them *without re-running the
planner*, so a plan deserialized from disk, produced by a cached solve, or
hand-edited in a test is validated on its own:

* **Eq. 4** — every stage's forward and backward footprint fits in usable
  GPU memory;
* **prefetch range** — no budget is negative or larger than the upload it
  prefetches;
* **Eq. 5, backward** — each backward prefetch budget fits in the memory
  left next to the backward footprint of the stage executing on the same
  GPU;
* **Eq. 11** — the resident tail never carries a backward re-upload budget.

What it leaves out is caught elsewhere (DESIGN.md §8): ``M = N`` and one
stage per GPU by tier-1 planner tests, the forward Eq. 5 room by the
prefetch-budget unit tests, and the Eq. 3 objective, which a replay could
only recompute with the same :func:`~repro.core.timing.evaluate_pipeline`
the planner scored the plan with, by ``tests/check/test_corpus.py`` and the
literal MIP oracle (``tests/core/literal_mip.py``).

Each violated constraint yields one :class:`~repro.check.findings.Finding`
naming the offending stage/GPU and the slack (negative by the violation
amount, in the constraint's unit).
"""

from __future__ import annotations

from repro.check.findings import CheckReport
from repro.core.plan import ExecutionPlan
from repro.models.costmodel import CostModel

__all__ = ["check_plan"]

_CHECKER = "plan"


def check_plan(plan: ExecutionPlan, cost_model: CostModel) -> CheckReport:
    """Verify ``plan`` against the MIP formulation's memory constraints.

    Args:
        plan: The plan to verify.
        cost_model: Cost source the plan was built with; supplies the
            per-stage memory footprints and the usable-memory bound ``G``.

    Returns:
        A report with one finding per violated constraint.
    """
    report = CheckReport()
    n = plan.n_gpus
    s = plan.n_stages
    m = plan.n_microbatches
    gpu_memory = cost_model.usable_gpu_bytes()
    stage_costs = plan.partition.stage_costs(cost_model)

    for j, cost in enumerate(stage_costs):
        subject = f"stage {j} / gpu {plan.mapping.gpu_of_stage(j)}"

        # Eq. 4: the stage's footprints fit in usable GPU memory.
        for phase, needed in (("fwd", cost.mem_fwd(m)), ("bwd", cost.mem_bwd(m))):
            slack = gpu_memory - needed
            if slack < 0:
                report.add(
                    _CHECKER,
                    "PLAN-EQ4",
                    f"stage {j} {phase} footprint {needed / 1e9:.3f}GB exceeds "
                    f"usable GPU memory {gpu_memory / 1e9:.3f}GB",
                    subject=subject,
                    slack=float(slack),
                )

        # Budgets never exceed the upload they prefetch.
        pf_fwd = plan.prefetch_fwd_bytes[j]
        pf_bwd = plan.prefetch_bwd_bytes[j]
        for name, value, upload in (
            ("forward", pf_fwd, cost.param_bytes),
            ("backward", pf_bwd, cost.param_bytes + m * cost.input_activation_bytes),
        ):
            if value < 0:
                report.add(
                    _CHECKER,
                    "PLAN-PF-RANGE",
                    f"stage {j} {name} prefetch budget is negative ({value})",
                    subject=subject,
                    slack=float(value),
                )
            elif value > upload:
                report.add(
                    _CHECKER,
                    "PLAN-PF-RANGE",
                    f"stage {j} {name} prefetch budget {value / 1e9:.3f}GB "
                    f"exceeds its upload size {upload / 1e9:.3f}GB",
                    subject=subject,
                    slack=float(upload - value),
                )

        if j < s - n and pf_bwd > 0:
            # Eq. 5: while stage j+N runs backward on this GPU, the GPU must
            # hold its footprint *plus* stage j's prefetched bytes.
            room = gpu_memory - stage_costs[j + n].mem_bwd(m)
            slack = room - pf_bwd
            if slack < 0:
                report.add(
                    _CHECKER,
                    "PLAN-EQ5-BWD",
                    f"stage {j} backward prefetch {pf_bwd / 1e9:.3f}GB does "
                    f"not fit beside stage {j + n}'s backward footprint "
                    f"(room {room / 1e9:.3f}GB)",
                    subject=subject,
                    slack=float(slack),
                )

        if j >= s - n and pf_bwd != 0:
            # Eq. 11: the top N stages stay resident between forward and
            # backward — a backward re-upload budget is meaningless there
            # and signals a corrupted plan.
            report.add(
                _CHECKER,
                "PLAN-RESIDENT",
                f"resident-tail stage {j} carries a backward prefetch budget "
                f"of {pf_bwd} bytes; resident stages are never re-uploaded",
                subject=subject,
                slack=float(-pf_bwd),
            )

    return report
