"""Extensions beyond the paper's evaluated configuration.

Three features the paper mentions but scopes out, built here to probe the
design space:

* **SSD offload tier** (§3.1: "the limited bandwidth of SSDs is a
  performance bottleneck on a single server") — :func:`simulate_with_ssd`
  re-runs a plan with stage data served from an NVMe tier instead of DRAM,
  quantifying exactly how much the pipeline slows at SSD bandwidth and
  validating the paper's DRAM-only choice;
* **steady-state multi-step simulation** — :func:`simulate_mobius_steps`
  chains several training steps so the next step's first-stage uploads
  overlap the current step's backward tail, separating the one-off fill
  cost from the amortised per-step time;
* **microbatch advisor** — :func:`advise_microbatch_size` sweeps the
  microbatch size and reports the throughput-optimal setting for a model
  on a server, the practical question a fine-tuning user actually has.
"""

from __future__ import annotations

import dataclasses

from repro.core.api import MobiusConfig, plan_mobius
from repro.core.pipeline import build_mobius_tasks, simulate_mobius
from repro.hardware.topology import Topology
from repro.models.costmodel import CostModel
from repro.models.spec import ModelSpec
from repro.sim.tasks import TaskGraphRunner, TaskTable
from repro.sim.trace import Trace

__all__ = [
    "SSD_BW",
    "simulate_with_ssd",
    "simulate_mobius_steps",
    "MicrobatchAdvice",
    "advise_microbatch_size",
]

GB = 1e9

#: Sustained NVMe read/write bandwidth (a fast PCIe 4.0 SSD).
SSD_BW = 5.0 * GB


def _ssd_topology(topology: Topology, ssd_bandwidth: float) -> Topology:
    """Clone a commodity topology with the memory tier behind SSD bandwidth.

    The root-complex-to-DRAM edge becomes the SSD link: every stage swap,
    activation stash and gradient offload now crosses it.  ``ssd_bandwidth``
    applies per root complex (i.e. a striped/NUMA-local NVMe setup); a
    single shared drive would be tighter still.
    """
    clone = Topology(
        topology.gpu_spec,
        topology.groups,
        pcie_bandwidth=topology.pcie_bandwidth,
        dram_bandwidth=ssd_bandwidth,
        nvlink_bandwidth=topology.nvlink_bandwidth,
        name=f"{topology.name} (SSD tier)",
    )
    return clone


@dataclasses.dataclass
class SSDComparison:
    """DRAM-tier vs SSD-tier step times for one plan."""

    dram_step_seconds: float
    ssd_step_seconds: float

    @property
    def slowdown(self) -> float:
        return self.ssd_step_seconds / self.dram_step_seconds


def simulate_with_ssd(
    model: ModelSpec,
    topology: Topology,
    *,
    ssd_bandwidth: float = SSD_BW,
    config: MobiusConfig = MobiusConfig(partition_time_limit=2.0),
) -> SSDComparison:
    """Quantify the §3.1 claim that an SSD tier bottlenecks the pipeline."""
    report = plan_mobius(model, topology, config)
    dram = simulate_mobius(report.plan, topology, report.cost_model)
    ssd = simulate_mobius(
        report.plan, _ssd_topology(topology, ssd_bandwidth), report.cost_model
    )
    return SSDComparison(
        dram_step_seconds=dram.step_seconds, ssd_step_seconds=ssd.step_seconds
    )


@dataclasses.dataclass
class MultiStepRun:
    """Trace and timing of several chained training steps."""

    trace: Trace
    n_steps: int
    total_seconds: float
    step_boundaries: list[float]

    @property
    def amortised_step_seconds(self) -> float:
        return self.total_seconds / self.n_steps

    @property
    def first_step_seconds(self) -> float:
        return self.step_boundaries[0]


def simulate_mobius_steps(
    model: ModelSpec,
    topology: Topology,
    *,
    n_steps: int = 3,
    config: MobiusConfig = MobiusConfig(partition_time_limit=2.0),
) -> MultiStepRun:
    """Chain ``n_steps`` Mobius steps in one simulation.

    Step ``k+1``'s task graph depends on step ``k``'s final gradient
    offloads (the CPU optimizer must finish before the next forward uses
    the updated parameters), but its first-stage uploads may overlap step
    ``k``'s backward tail — the steady-state behaviour a one-step
    simulation cannot show.
    """
    if n_steps <= 0:
        raise ValueError(f"n_steps must be positive, got {n_steps}")
    report = plan_mobius(model, topology, config)
    cost_model: CostModel = report.cost_model
    stage_costs = report.plan.partition.stage_costs(cost_model)

    table = TaskTable()
    previous_grads: list[int] = []
    for _ in range(n_steps):
        first = len(table)
        build_mobius_tasks(report.plan, topology, stage_costs, table=table)
        rows = range(first, len(table))
        # Chain: this step's roots wait for the previous step's gradient
        # offloads (parameter update dependency).
        if previous_grads:
            has_deps = set(table.edges()[1].tolist())
            for row in rows:
                if row not in has_deps:
                    table.after(row, *previous_grads)
        previous_grads = [row for row in rows if table.label[row].startswith("Og")]

    runner = TaskGraphRunner(topology)
    trace = runner.execute(table)
    ends = runner.last_times.end
    per_step = len(table) // n_steps
    boundaries = [
        float(ends[step * per_step : (step + 1) * per_step].max())
        for step in range(n_steps)
    ]
    return MultiStepRun(
        trace=trace,
        n_steps=n_steps,
        total_seconds=trace.makespan,
        step_boundaries=boundaries,
    )


@dataclasses.dataclass
class MicrobatchAdvice:
    """Result of the microbatch sweep."""

    best_microbatch_size: int
    throughputs: dict[int, float]  # mbs -> samples/second
    step_seconds: dict[int, float]


def advise_microbatch_size(
    model: ModelSpec,
    topology: Topology,
    *,
    candidates: tuple[int, ...] = (1, 2, 4, 8),
    partition_time_limit: float = 1.0,
) -> MicrobatchAdvice:
    """Sweep microbatch sizes; larger microbatches amortise swap traffic
    until memory forces small stages (infeasible sizes are skipped)."""
    throughputs: dict[int, float] = {}
    steps: dict[int, float] = {}
    for mbs in candidates:
        try:
            report = plan_mobius(
                model,
                topology,
                MobiusConfig(
                    microbatch_size=mbs, partition_time_limit=partition_time_limit
                ),
            )
        except ValueError:
            continue  # no feasible partition at this size
        run = simulate_mobius(report.plan, topology, report.cost_model)
        samples = report.plan.n_microbatches * mbs
        steps[mbs] = run.step_seconds
        throughputs[mbs] = samples / run.step_seconds
    if not throughputs:
        raise ValueError(f"no feasible microbatch size for {model.name}")
    best = max(throughputs, key=lambda k: throughputs[k])
    return MicrobatchAdvice(
        best_microbatch_size=best, throughputs=throughputs, step_seconds=steps
    )
