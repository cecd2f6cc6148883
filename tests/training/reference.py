"""Reference microbatch training: plain gradient accumulation.

The ground truth that both pipeline trainers must match: split the global
batch into microbatches, accumulate parameter gradients, average, and step.
Synchronous pipelines (GPipe, Mobius) are mathematically identical to this
— the equivalence the §3.1 convergence discussion relies on, asserted by
``tests/training/test_equivalence.py``.  No entry point of the package
trains this way, so the oracle lives with the tests that use it.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.optim import Adam
from repro.nn.data import Batch
from repro.nn.transformer import GPTModel

from tests.autograd.per_op import loss as model_loss

__all__ = ["accumulate_gradients", "ReferenceTrainer", "split_batch"]


def split_batch(batch: Batch, n_microbatches: int) -> list[Batch]:
    """Split a global batch into equal microbatches."""
    if batch.inputs.shape[0] % n_microbatches:
        raise ValueError(
            f"batch size {batch.inputs.shape[0]} not divisible by "
            f"{n_microbatches} microbatches"
        )
    inputs = np.array_split(batch.inputs, n_microbatches)
    targets = np.array_split(batch.targets, n_microbatches)
    return [Batch(i, t) for i, t in zip(inputs, targets)]


def accumulate_gradients(model: GPTModel, microbatches: list[Batch]) -> float:
    """Accumulate averaged gradients over microbatches; returns mean loss."""
    scale = 1.0 / len(microbatches)
    total = 0.0
    for micro in microbatches:
        loss = model_loss(model, micro.inputs, micro.targets) * scale
        loss.backward()
        total += loss.item()
    return total


class ReferenceTrainer:
    """Vanilla data-order training loop used as the correctness oracle."""

    def __init__(self, model: GPTModel, *, lr: float = 3e-4, n_microbatches: int = 4) -> None:
        self.model = model
        self.optimizer = Adam(model.parameters(), lr=lr)
        self.n_microbatches = n_microbatches

    def step(self, batch: Batch) -> float:
        """One optimizer step over ``batch``; returns the mean loss."""
        self.optimizer.zero_grad()
        loss = accumulate_gradients(self.model, split_batch(batch, self.n_microbatches))
        self.optimizer.step()
        return loss
