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
from repro.autograd.tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Adam",
    "Tensor",
    "causal_mask_fill",
    "cross_entropy_logits",
    "embedding",
    "gelu",
    "is_grad_enabled",
    "layer_norm",
    "no_grad",
    "softmax",
]
