"""Fused neural-network operations for the autograd engine.

Composite kernels (softmax cross-entropy, layer norm, GELU, embedding
lookup, causal attention masking) implemented with hand-written
backward passes — both faster and numerically safer than composing them from
primitive ops.
"""

from __future__ import annotations

import math

import numpy as np

from repro.autograd.tensor import Tensor

__all__ = [
    "gelu",
    "softmax",
    "cross_entropy_logits",
    "layer_norm",
    "embedding",
    "causal_mask_fill",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in GPT-2)."""
    # x*x*x, not x**3: numpy's float32 pow is ~100x slower on negative bases.
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


def cross_entropy_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits and integer targets.

    Args:
        logits: ``(..., vocab)`` unnormalised scores.
        targets: Integer array matching the leading dims of ``logits``.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.shape[:-1]}"
        )
    flat_logits = logits.data.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    shifted = flat_logits - flat_logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(flat_targets)), flat_targets]
    losses = logsumexp - picked
    out_data = np.array(losses.mean(), dtype=np.float32)

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            probs = np.exp(shifted - logsumexp[:, None])
            probs[np.arange(len(flat_targets)), flat_targets] -= 1.0
            probs *= float(grad) / len(flat_targets)
            logits._accumulate(probs.reshape(logits.shape))

    return Tensor._make(out_data, (logits,), backward)


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
            n = x.shape[-1]
            dx = (
                d - d.mean(axis=-1, keepdims=True)
                - normed * (d * normed).mean(axis=-1, keepdims=True)
            ) * inv_std
            del n
            x._accumulate(dx)

    return Tensor._make(out_data, (x, weight, bias), backward)


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``table[indices]`` with scatter-add backward."""
    indices = np.asarray(indices)
    out_data = table.data[indices]

    def backward(grad: np.ndarray) -> None:
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, indices.reshape(-1), grad.reshape(-1, table.shape[-1]))
            table._accumulate(full)

    return Tensor._make(out_data, (table,), backward)


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
