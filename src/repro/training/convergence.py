"""Convergence experiment driver (§4.6, Figure 13).

Fine-tunes the same GPT model with the GPipe schedule (8 virtual GPUs in
the paper, one stage each) and with the Mobius schedule (4 virtual GPUs,
twice as many stages), recording the training-loss curves.  Because both
schedules are synchronous, the curves overlap; the paper attributes the
residual wiggle to "variation of randomness caused by different numbers of
GPUs", which here manifests as a different microbatch split (and hence
float summation order) per system.
"""

from __future__ import annotations

import dataclasses

from repro.nn.data import SyntheticCorpus
from repro.nn.transformer import GPTConfig, GPTModel
from repro.training.pipeline_train import MobiusScheduleTrainer

__all__ = ["ConvergenceResult", "run_convergence_experiment"]

#: Fine-tuning learning rate, and the seed of the corpus, the sampling
#: stream (``_SEED + 1``) and both models' initialisation.
_LR = 3e-4
_SEED = 0


@dataclasses.dataclass
class ConvergenceResult:
    """Loss curves of the two systems over the same data stream."""

    steps: list[int]
    gpipe_loss: list[float]
    mobius_loss: list[float]

    def max_divergence(self) -> float:
        """Largest absolute gap between the two loss curves."""
        return max(
            abs(a - b) for a, b in zip(self.gpipe_loss, self.mobius_loss)
        )


def run_convergence_experiment(
    *,
    n_steps: int,
    config: GPTConfig,
    batch_size: int,
    gpipe_gpus: int,
    mobius_gpus: int,
) -> ConvergenceResult:
    """Run the Figure 13 comparison.

    Both trainers see the *same* global batches (same corpus, same sampling
    seed) from identically initialised models; only the schedule — and the
    microbatch count implied by the GPU count — differs.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    corpus = SyntheticCorpus(vocab_size=config.vocab_size, n_tokens=50_000, seed=_SEED)

    gpipe_model = GPTModel(config, seed=_SEED)
    mobius_model = GPTModel(config, seed=_SEED)
    gpipe = MobiusScheduleTrainer(
        gpipe_model, gpipe_gpus, gpipe_gpus, lr=_LR, n_microbatches=gpipe_gpus
    )
    mobius = MobiusScheduleTrainer(
        mobius_model, mobius_gpus, lr=_LR, n_microbatches=mobius_gpus
    )

    steps: list[int] = []
    gpipe_losses: list[float] = []
    mobius_losses: list[float] = []
    stream = corpus.batches(batch_size, config.seq_len, seed=_SEED + 1)
    for step, batch in zip(range(n_steps), stream):
        gpipe_losses.append(gpipe.step(batch))
        mobius_losses.append(mobius.step(batch))
        steps.append(step)
    return ConvergenceResult(steps, gpipe_losses, mobius_losses)
