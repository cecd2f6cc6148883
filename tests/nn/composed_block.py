"""The per-op transformer forward, kept as a test oracle.

:func:`repro.autograd.ops.transformer_block` runs a whole pre-norm block as
one graph node with a hand-written backward.  Its contract is bit identity
with the graph below, which composes the block from the primitive ops of
``tests/autograd/per_op.py`` (27 nodes per block) and the single-op kernels
as they were before fusion: a layer norm that takes ``mean`` and then ``var``, a
GELU node, an affine layer as a matmul node plus a bias node, and the
``softmax`` and ``causal_mask_fill`` nodes that only this graph uses.  The
equivalence tests (``tests/nn/test_fused_block.py``) compare outputs,
gradients and whole training runs with ``assert_array_equal``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.layers import Module
from repro.nn.transformer import GPTConfig, GPTModel, HeadLayer, TransformerBlock

from tests.autograd.per_op import getitem, matmul, reshape, transpose

__all__ = [
    "ComposedBlock",
    "ComposedHead",
    "causal_mask_fill",
    "composed_model",
    "gelu",
    "layer_norm",
    "softmax",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in GPT-2)."""
    u = _SQRT_2_OVER_PI * (x.data + 0.044715 * (x.data * x.data * x.data))
    t = np.tanh(u)
    out_data = 0.5 * x.data * (1.0 + t)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            du = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x.data**2)
            dt = (1.0 - t**2) * du
            x._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * x.data * dt))

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension."""
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normed = (x.data - mean) * inv_std
    out_data = normed * weight.data + bias.data

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            weight._accumulate((grad * normed).sum(axis=tuple(range(grad.ndim - 1))))
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=tuple(range(grad.ndim - 1))))
        if x.requires_grad:
            d = grad * weight.data
            dx = (
                d - d.mean(axis=-1, keepdims=True)
                - normed * (d * normed).mean(axis=-1, keepdims=True)
            ) * inv_std
            x._accumulate(dx)

    return Tensor._make(out_data, (x, weight, bias), backward)


def causal_mask_fill(scores: Tensor, fill: float = -1e9) -> Tensor:
    """Mask the strictly-upper triangle of the last two dims (future tokens)."""
    seq = scores.shape[-1]
    if scores.shape[-2] != seq:
        raise ValueError(f"expected square attention scores, got {scores.shape}")
    mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
    out_data = np.where(mask, np.float32(fill), scores.data)

    def backward(grad: np.ndarray) -> None:
        if scores.requires_grad:
            scores._accumulate(np.where(mask, 0.0, grad))

    return Tensor._make(out_data, (scores,), backward)


def _linear(layer, x: Tensor) -> Tensor:
    out = matmul(x, layer.weight)
    if layer.bias is not None:
        out = out + layer.bias
    return out


def _layer_norm(layer, x: Tensor) -> Tensor:
    return layer_norm(x, layer.weight, layer.bias, layer.eps)


def _attention(attn, x: Tensor) -> Tensor:
    batch, seq, dim = x.shape
    qkv = _linear(attn.qkv, x)  # (B, S, 3D)
    qkv = reshape(qkv, batch, seq, 3, attn.n_heads, attn.head_dim)
    qkv = transpose(qkv, 2, 0, 3, 1, 4)  # (3, B, H, S, hd)
    q, k, v = getitem(qkv, 0), getitem(qkv, 1), getitem(qkv, 2)

    scores = matmul(q, transpose(k, 0, 1, 3, 2)) * (1.0 / math.sqrt(attn.head_dim))
    scores = causal_mask_fill(scores)
    weights = softmax(scores, axis=-1)
    context = matmul(weights, v)  # (B, H, S, hd)
    context = reshape(transpose(context, 0, 2, 1, 3), batch, seq, dim)
    return _linear(attn.proj, context)


class ComposedBlock(Module):
    """A :class:`TransformerBlock`'s parameters run through the per-op graph."""

    def __init__(self, block: TransformerBlock) -> None:
        super().__init__()
        self.block = block

    def forward(self, x: Tensor) -> Tensor:
        b = self.block
        x = x + _attention(b.attn, _layer_norm(b.ln1, x))
        return x + _linear(b.fc_out, gelu(_linear(b.fc_in, _layer_norm(b.ln2, x))))


class ComposedHead(Module):
    """A :class:`HeadLayer` through the pre-fusion layer norm and affine nodes."""

    def __init__(self, head: HeadLayer) -> None:
        super().__init__()
        self.head = head

    def forward(self, x: Tensor) -> Tensor:
        return _linear(self.head.proj, _layer_norm(self.head.norm, x))


def composed_model(config: GPTConfig, *, seed: int = 0) -> GPTModel:
    """``GPTModel(config, seed=seed)`` with its blocks and head run per op.

    The wrappers hold the original layers, so initial values and the
    ``parameters()`` order are those of the fused model.
    """
    model = GPTModel(config, seed=seed)
    embed, *blocks, head = model.pipeline_layers
    model.pipeline_layers = [embed, *map(ComposedBlock, blocks), ComposedHead(head)]
    return model
