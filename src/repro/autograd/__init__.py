"""Reverse-mode autodiff on numpy (convergence-experiment substrate)."""

from repro.autograd.ops import (
    causal_mask_fill,
    cross_entropy_logits,
    embedding,
    gelu,
    layer_norm,
    softmax,
)
from repro.autograd.optim import Adam
from repro.autograd.tensor import Tensor

__all__ = [
    "Adam",
    "Tensor",
    "causal_mask_fill",
    "cross_entropy_logits",
    "embedding",
    "gelu",
    "layer_norm",
    "softmax",
]
