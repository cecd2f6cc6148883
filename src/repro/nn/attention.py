"""Multi-head causal self-attention."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear, Module

__all__ = ["CausalSelfAttention"]


class CausalSelfAttention(Module):
    """GPT-style masked multi-head attention's parameters.

    :class:`~repro.nn.transformer.TransformerBlock` runs them inside its
    fused node (:func:`repro.autograd.ops.transformer_block`).

    Args:
        dim: Model hidden size.
        n_heads: Number of attention heads (must divide ``dim``).
        rng: Initialisation generator.
    """

    def __init__(self, dim: int, n_heads: int, *, rng: np.random.Generator) -> None:
        super().__init__()
        if dim % n_heads:
            raise ValueError(f"dim {dim} not divisible by n_heads {n_heads}")
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.qkv = Linear(dim, 3 * dim, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)
