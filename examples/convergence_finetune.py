"""Fine-tune a small GPT with the real Mobius schedule (numpy autograd).

Exercises the heterogeneous-memory training semantics end to end with real
gradients: the model's pipeline layers are partitioned into more stages
than (virtual) GPUs, stages are swapped in and out of "GPU memory" with a
bounded residency, and the loss curve overlaps GPipe's — the §3.1
convergence guarantee, Figure 13.  GPipe on 8 GPUs and Mobius on 4 split
each batch into 8 and 4 microbatches, so their gradients are summed in a
different order and the curves differ by float rounding only (by up to 3.6e-7
over 60 steps).  With the same microbatch count the updates are
bit-identical (tests/training/test_equivalence.py).

Usage:
    python examples/convergence_finetune.py [steps]
"""

import sys

from repro.nn.transformer import GPTConfig
from repro.training.convergence import run_convergence_experiment
from repro.training.pipeline_train import MobiusScheduleTrainer
from repro.nn.data import SyntheticCorpus
from repro.nn.transformer import GPTModel


def main() -> None:
    n_steps = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    config = GPTConfig(vocab_size=128, seq_len=32, dim=64, n_heads=4, n_blocks=6)

    print("running GPipe (8 virtual GPUs) vs Mobius (4 virtual GPUs) ...")
    result = run_convergence_experiment(
        n_steps=n_steps, config=config, batch_size=8, gpipe_gpus=8, mobius_gpus=4
    )
    print(f"\n{'step':>5} {'gpipe loss':>11} {'mobius loss':>12} {'gap':>10}")
    stride = max(1, n_steps // 10)
    for index in range(0, n_steps, stride):
        gap = abs(result.gpipe_loss[index] - result.mobius_loss[index])
        print(
            f"{index:>5} {result.gpipe_loss[index]:>11.4f} "
            f"{result.mobius_loss[index]:>12.4f} {gap:>10.2e}"
        )
    print(f"\nmax divergence: {result.max_divergence():.2e} "
          "(synchronous schedules; 8 vs 4 microbatches sum gradients in a "
          "different order)")

    # Peek at the swap behaviour of one Mobius step.
    corpus = SyntheticCorpus(vocab_size=config.vocab_size, n_tokens=10_000)
    trainer = MobiusScheduleTrainer(GPTModel(config, seed=0), 4, n_stages=8)
    trainer.step(next(corpus.batches(8, config.seq_len)))
    uploads = sum(1 for e in trainer.swap_events if e.kind == "upload")
    frees = sum(1 for e in trainer.swap_events if e.kind == "free")
    print(f"\none Mobius step swapped {uploads} stage uploads / {frees} frees "
          f"across 4 virtual GPUs ({trainer.partition.n_stages} stages)")
    print("first few swap events:")
    for event in trainer.swap_events[:8]:
        print(f"  {event.kind:>6} stage {event.stage} on gpu {event.gpu} ({event.phase})")


if __name__ == "__main__":
    main()
