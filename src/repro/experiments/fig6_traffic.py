"""Figure 6: communication traffic of DeepSpeed and Mobius.

Both the analytic estimates (Eqs. 1-2) and the measured per-step transfer
volumes from simulator traces, for the 8B / 15B / 51B models on 4 GPUs.
Expected shape: DeepSpeed ~7.3x the model size, Mobius ~1.5-1.8x.
"""

from __future__ import annotations

from repro.analysis.traffic import deepspeed_traffic, mobius_traffic, model_size_bytes
from repro.experiments.runner import ExperimentCell, ExperimentTable, run_system
from repro.hardware.topology import topo_2_2
from repro.models.zoo import gpt_8b, gpt_15b, gpt_51b

__all__ = ["cells", "run"]

GB = 1e9


def _models(fast: bool):
    return [gpt_8b, gpt_15b] if fast else [gpt_8b, gpt_15b, gpt_51b]


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """Measured-traffic cells (default microbatch size per model)."""
    return tuple(
        ExperimentCell(system=system, model=model_factory(), topology=topo_2_2())
        for model_factory in _models(fast)
        for system in ("deepspeed", "mobius")
    )


def run(fast: bool = False) -> ExperimentTable:
    """Regenerate Figure 6 (Topo 2+2, 4 GPUs)."""
    models = _models(fast)
    table = ExperimentTable(
        title="Figure 6: per-step communication traffic (GB)",
        columns=(
            "model",
            "model_size",
            "ds_analytic",
            "ds_measured",
            "mobius_analytic",
            "mobius_measured",
            "ds_x",
            "mobius_x",
        ),
    )
    topology = topo_2_2()
    for model_factory in models:
        model = model_factory()
        size = model_size_bytes(model)
        mbs = model.default_microbatch_size
        ds_est = deepspeed_traffic(model, mbs, topology.n_gpus)
        mob_est = mobius_traffic(model, mbs, topology.n_gpus)
        ds = run_system("deepspeed", model, topology)
        mob = run_system("mobius", model, topology)
        assert ds.trace is not None and mob.trace is not None
        ds_measured = ds.trace.total_transfer_bytes()
        mob_measured = mob.trace.total_transfer_bytes()
        table.add_row(
            model.name,
            size / GB,
            ds_est.total / GB,
            ds_measured / GB,
            mob_est.total / GB,
            mob_measured / GB,
            f"{ds_measured / size:.1f}",
            f"{mob_measured / size:.1f}",
        )
    table.notes.append("paper: DeepSpeed ~7.3x model size, Mobius ~1.8x (red line = model size)")
    return table
