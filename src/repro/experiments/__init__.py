"""Experiment harnesses regenerating every table and figure of the paper.

Each module exposes ``cells(fast: bool = False)`` and
``run(fast: bool = False) -> ExperimentTable`` (or a list of tables).
``python -m repro figures NAME [--full]`` prints them, e.g.::

    python -m repro figures fig5 --full
"""

from repro.experiments.runner import ExperimentTable, SystemResult, print_tables, run_system

__all__ = ["ExperimentTable", "SystemResult", "print_tables", "run_system", "ALL_EXPERIMENTS"]

#: Module names of every experiment, in paper order.
ALL_EXPERIMENTS = (
    "table1_gpus",
    "fig2_deepspeed_cdf",
    "fig4_pipeline_timeline",
    "fig5_overall",
    "fig6_traffic",
    "fig7_bandwidth_cdf",
    "fig8_overlap",
    "fig9_partition",
    "fig10_mapping",
    "fig11_mapping_cdf",
    "fig12_overhead",
    "fig13_convergence",
    "fig14_scalability",
    "fig15_datacenter",
    "fig16_dc_bandwidth",
    "sec23_deepspeed_profile",
)
