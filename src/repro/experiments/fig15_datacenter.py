"""Figure 15: performance and price on the data-center GPU server (§4.8).

Trains the 8B and 15B models (microbatch size 2) with DeepSpeed and Mobius
on both an EC2-P3-style 4xV100 NVLink server and the commodity 4x3090-Ti
server (Topo 2+2).  Expected shapes:

* both systems speed up on the data-center server (NVLink);
* DeepSpeed gains far more (its all-to-all collectives ride NVLink) and
  beats Mobius there;
* Mobius-on-commodity is moderately slower than DeepSpeed-on-DC (paper:
  +42% time) but much cheaper per step (paper: -43% price).
"""

from __future__ import annotations

from repro.analysis.price import PricePoint
from repro.experiments.runner import ExperimentCell, ExperimentTable, run_system
from repro.hardware.pricing import COMMODITY_4X3090TI, EC2_P3_8XLARGE
from repro.hardware.topology import datacenter_server, topo_2_2
from repro.models.zoo import gpt_8b, gpt_15b

__all__ = ["cells", "run"]


def _models(fast: bool):
    return [gpt_8b] if fast else [gpt_8b, gpt_15b]


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """Both systems on both server classes, microbatch size 2."""
    return tuple(
        ExperimentCell(
            system=system,
            model=model_factory(),
            topology=topo_factory(),
            microbatch_size=2,
        )
        for model_factory in _models(fast)
        for topo_factory in (datacenter_server, topo_2_2)
        for system in ("deepspeed", "mobius")
    )


def run(fast: bool = False) -> list[ExperimentTable]:
    """Regenerate Figure 15 (a: per-step time, b: per-step price)."""
    models = _models(fast)
    time_table = ExperimentTable(
        title="Figure 15a: per-step time (seconds), microbatch size 2",
        columns=("model", "ds_dc", "mobius_dc", "ds_commodity", "mobius_commodity"),
    )
    price_table = ExperimentTable(
        title="Figure 15b: per-step price (USD)",
        columns=("model", "ds_dc", "mobius_commodity", "time_x", "price_x"),
    )
    for model_factory in models:
        model = model_factory()
        dc = datacenter_server()
        commodity = topo_2_2()
        results = {
            ("deepspeed", "dc"): run_system("deepspeed", model, dc, microbatch_size=2),
            ("mobius", "dc"): run_system("mobius", model, dc, microbatch_size=2),
            ("deepspeed", "c"): run_system("deepspeed", model, commodity, microbatch_size=2),
            ("mobius", "c"): run_system("mobius", model, commodity, microbatch_size=2),
        }
        time_table.add_row(
            model.name,
            results[("deepspeed", "dc")].step_seconds,
            results[("mobius", "dc")].step_seconds,
            results[("deepspeed", "c")].step_seconds,
            results[("mobius", "c")].step_seconds,
        )
        ds_dc = PricePoint(
            "DeepSpeed", EC2_P3_8XLARGE, results[("deepspeed", "dc")].step_seconds
        )
        mobius_c = PricePoint(
            "Mobius", COMMODITY_4X3090TI, results[("mobius", "c")].step_seconds
        )
        price_table.add_row(
            model.name,
            ds_dc.step_price_usd,
            mobius_c.step_price_usd,
            f"{mobius_c.step_seconds / ds_dc.step_seconds:.2f}",
            f"{mobius_c.step_price_usd / ds_dc.step_price_usd:.2f}",
        )
    time_table.notes.append("paper: DeepSpeed beats Mobius on the DC server (full NVLink)")
    price_table.notes.append(
        "paper: Mobius-on-commodity is ~1.42x the time at ~0.57x the price of DS-on-DC"
    )
    return [time_table, price_table]
