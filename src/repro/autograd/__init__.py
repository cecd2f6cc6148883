"""Reverse-mode autodiff on numpy (convergence-experiment substrate)."""

from repro.autograd.ops import cross_entropy_logits, embedding, layer_norm
from repro.autograd.optim import Adam
from repro.autograd.tensor import Tensor

__all__ = [
    "Adam",
    "Tensor",
    "cross_entropy_logits",
    "embedding",
    "layer_norm",
]
