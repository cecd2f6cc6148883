"""Figure 13: training-loss curves of Mobius and GPipe.

Fine-tunes the same (small) GPT on the synthetic WikiText-2 stand-in with
the GPipe schedule on 8 virtual GPUs and the Mobius schedule on 4, as in
§4.6.  Expected shape: the curves overlap (synchronous updates), with only
float-summation-order wiggle from the different microbatch splits.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentCell, ExperimentTable
from repro.nn.transformer import GPTConfig
from repro.training.convergence import run_convergence_experiment

__all__ = ["cells", "run"]


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """No simulation cells: this figure runs a real training loop."""
    return ()


def run(fast: bool = False) -> ExperimentTable:
    """Regenerate Figure 13 (loss sampled every few steps)."""
    n_steps = 20 if fast else 60
    result = run_convergence_experiment(
        n_steps=n_steps,
        config=GPTConfig(vocab_size=128, seq_len=32, dim=64, n_heads=4, n_blocks=6),
        batch_size=8,
        gpipe_gpus=8,
        mobius_gpus=4,
    )
    table = ExperimentTable(
        title="Figure 13: training loss, GPipe (8 GPUs) vs Mobius (4 GPUs)",
        columns=("step", "gpipe_loss", "mobius_loss", "gap"),
    )
    stride = max(1, len(result.steps) // 12)
    for index in range(0, len(result.steps), stride):
        table.add_row(
            result.steps[index],
            result.gpipe_loss[index],
            result.mobius_loss[index],
            f"{abs(result.gpipe_loss[index] - result.mobius_loss[index]):.2e}",
        )
    table.notes.append(
        f"max divergence over the run: {result.max_divergence():.2e} "
        "(paper: curves almost overlap; wiggle from GPU-count randomness)"
    )
    table.notes.append(
        f"loss decreased {result.gpipe_loss[0]:.3f} -> {result.gpipe_loss[-1]:.3f}"
    )
    return table
