"""Quickstart: plan and simulate fine-tuning a 15B model on 4x3090-Ti.

Runs Mobius's full planning pipeline (profiling with layer similarity, MIP
partitioning, cross mapping) for the paper's 15B model on a commodity
server with two GPUs per CPU root complex, simulates one training step, and
compares against DeepSpeed ZeRO-3 with heterogeneous memory.

Usage:
    python examples/quickstart.py
"""

from repro.analysis.overlap import overlap_stats
from repro.baselines.deepspeed import run_deepspeed
from repro.core.api import MobiusConfig, run_mobius
from repro.hardware.topology import topo_2_2
from repro.models.zoo import gpt_15b


def main() -> None:
    model = gpt_15b()
    topology = topo_2_2()
    print(f"model: {model.name} ({model.param_count / 1e9:.1f}B parameters)")
    print(f"server: {topology.name} with {topology.n_gpus}x {topology.gpu_spec.name}")
    print(f"DRAM needed to host the model: {model.dram_footprint_bytes() / 1e9:.0f} GB")
    print()

    print("planning (profile -> MIP partition -> cross mapping) ...")
    report = run_mobius(model, topology, MobiusConfig(partition_time_limit=5.0))
    plan_report = report.plan_report
    plan = plan_report.plan
    partition_result = plan_report.partition_result
    print(f"  profiling:     {plan_report.profile_report.profiling_seconds:6.1f} s simulated "
          f"({plan_report.profile_report.n_unique_layers} unique layers measured)")
    print(f"  MIP solve:     {partition_result.nodes_explored:6d} nodes "
          f"(gap {partition_result.gap:.3f})")
    print(f"  cross mapping: {plan_report.mapping_result.schemes_evaluated:6d} schemes scored")
    print(f"  partition: {plan.n_stages} stages, "
          f"GPU permutation {plan.mapping.perm}")
    print()

    mobius_stats = overlap_stats(report.trace)
    print(f"Mobius simulated step:    {report.step_seconds:7.2f} s "
          f"(estimated {plan.estimated_step_seconds:.2f} s)")
    print(f"  traffic: {report.trace.total_transfer_bytes() / 1e9:6.1f} GB "
          f"({report.trace.total_transfer_bytes() / model.param_bytes(4):.1f}x model size)")
    print(f"  non-overlapped communication: {mobius_stats.non_overlapped_fraction:.0%} of the step")
    print()

    ds = run_deepspeed(model, topology)
    ds_stats = overlap_stats(ds.trace)
    print(f"DeepSpeed simulated step: {ds.step_seconds:7.2f} s")
    print(f"  traffic: {ds.trace.total_transfer_bytes() / 1e9:6.1f} GB "
          f"({ds.trace.total_transfer_bytes() / model.param_bytes(4):.1f}x model size)")
    print(f"  non-overlapped communication: {ds_stats.non_overlapped_fraction:.0%} of the step")
    print()
    print(f"==> Mobius speedup over DeepSpeed: "
          f"{ds.step_seconds / report.step_seconds:.1f}x "
          f"(paper: 3.8-5.1x)")


if __name__ == "__main__":
    main()
