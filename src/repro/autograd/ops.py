"""Fused neural-network operations for the autograd engine.

Each operation is one graph node with a hand-written backward: softmax
cross-entropy, layer norm, an affine layer, embedding lookup and a whole
pre-norm transformer block.  The block node is built from the same
array-level kernels (``_layer_norm``, ``_linear``, ``_gelu``, ``_attention``)
as the single-layer nodes, and those kernels repeat the numpy expressions,
evaluation order and operand layouts of the per-op graph they replace, so a
fused block yields the same bits as one composed from the per-op test
oracle's primitives (``tests/autograd/per_op.py``, composed into a block by
``tests/nn/composed_block.py``).

An array-level kernel returns ``(out, backward)``: ``backward(grad)``
accumulates the kernel's parameter gradients and returns the gradient of its
input array.  Kernels take the number ``m`` of microbatches stacked along
the input's axis 0 and hand it to each parameter's ``_accumulate``, which
sums within each microbatch and then over them in order (see
:mod:`repro.autograd.tensor`); everything else in a kernel works per sample
or per row, so its bits do not depend on ``m``.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.autograd.tensor import Tensor

__all__ = [
    "cross_entropy_logits",
    "layer_norm",
    "linear",
    "embedding",
    "transformer_block",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

_Backward = Callable[[np.ndarray], np.ndarray]


def _check_ids(ids: np.ndarray, size: int, what: str) -> None:
    """Reject ids outside ``[0, size)``; numpy would wrap negatives silently."""
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        bad = ids[(ids < 0) | (ids >= size)].flat[0]
        raise ValueError(f"{what} {bad} out of range: valid ids are [0, {size})")


def _node(out: np.ndarray, x: Tensor, params: tuple[Tensor, ...], back: _Backward) -> Tensor:
    """One graph node over input ``x`` and ``params`` from an array kernel."""

    def backward(grad: np.ndarray) -> None:
        dx = back(grad)
        if x.requires_grad:
            x._accumulate(dx)

    return Tensor._make(out, (x, *params), backward, x.microbatches)


def _layer_norm(
    x: np.ndarray, weight: Tensor, bias: Tensor, eps: float, m: int
) -> tuple[np.ndarray, _Backward]:
    """Layer normalisation over the last dimension, statistics computed once."""
    # The same sums and divisions as ``x.mean`` then ``x.var``, which
    # recomputes the mean and centres ``x`` again.
    mean = x.mean(axis=-1, keepdims=True)
    centred = x - mean
    var = (centred * centred).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normed = centred * inv_std
    out = normed * weight.data + bias.data

    def backward(grad: np.ndarray) -> np.ndarray:
        if weight.requires_grad:
            weight._accumulate(grad * normed, m)
        if bias.requires_grad:
            bias._accumulate(grad, m)
        d = grad * weight.data
        return (
            d - d.mean(axis=-1, keepdims=True)
            - normed * (d * normed).mean(axis=-1, keepdims=True)
        ) * inv_std

    return out, backward


def _linear(
    x: np.ndarray, weight: Tensor, bias: Tensor | None, m: int
) -> tuple[np.ndarray, _Backward]:
    """``x @ W + b`` with stacked (not flattened 2-D) matmuls."""
    out = x @ weight.data
    if bias is not None:
        out = out + bias.data

    def backward(grad: np.ndarray) -> np.ndarray:
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad, m)
        if weight.requires_grad:
            weight._accumulate(np.swapaxes(x, -1, -2) @ grad, m)
        return grad @ np.swapaxes(weight.data, -1, -2)

    return out, backward


def _gelu(x: np.ndarray) -> tuple[np.ndarray, _Backward]:
    """Gaussian error linear unit (tanh approximation, as in GPT-2)."""
    # x*x*x, not x**3: numpy's float32 pow is ~100x slower on negative bases.
    u = _SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x))
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)

    def backward(grad: np.ndarray) -> np.ndarray:
        du = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x**2)
        dt = (1.0 - t**2) * du
        return grad * (0.5 * (1.0 + t) + 0.5 * x * dt)

    return out, backward


def _attention(
    x: np.ndarray,
    qkv: tuple[Tensor, Tensor],
    proj: tuple[Tensor, Tensor],
    n_heads: int,
    m: int,
) -> tuple[np.ndarray, _Backward]:
    """GPT-style masked multi-head attention over ``(batch, seq, dim)``."""
    batch, seq, dim = x.shape
    head_dim = dim // n_heads
    fused, qkv_backward = _linear(x, *qkv, m)
    # (3, B, H, S, hd) views into the projection, one per q, k, v.
    q, k, v = fused.reshape(batch, seq, 3, n_heads, head_dim).transpose(2, 0, 3, 1, 4)
    scale = np.float32(1.0 / math.sqrt(head_dim))
    mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)  # future tokens
    scores = np.where(mask, np.float32(-1e9), (q @ k.transpose(0, 1, 3, 2)) * scale)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    weights = exp / exp.sum(axis=-1, keepdims=True)
    context = weights @ v  # (B, H, S, hd)
    out, proj_backward = _linear(
        context.transpose(0, 2, 1, 3).reshape(batch, seq, dim), *proj, m
    )

    def backward(grad: np.ndarray) -> np.ndarray:
        d_merged = proj_backward(grad)
        # A C-ordered copy, the layout the per-op graph hands to the matmuls.
        d_context = d_merged.reshape(batch, seq, n_heads, head_dim).transpose(0, 2, 1, 3).copy()
        d_weights = d_context @ np.swapaxes(v, -1, -2)
        d_v = np.swapaxes(weights, -1, -2) @ d_context
        dot = (d_weights * weights).sum(axis=-1, keepdims=True)
        d_scores = np.where(mask, 0.0, weights * (d_weights - dot)) * scale
        d_q = d_scores @ k
        d_k = (np.swapaxes(q, -1, -2) @ d_scores).transpose(0, 1, 3, 2)
        d_fused = np.stack((d_q, d_k, d_v)).transpose(1, 3, 0, 2, 4)
        return qkv_backward(d_fused.reshape(batch, seq, 3 * dim))

    return out, backward


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension."""
    out, back = _layer_norm(x.data, weight, bias, eps, x.microbatches)
    return _node(out, x, (weight, bias), back)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight + bias`` as one node."""
    out, back = _linear(x.data, weight, bias, x.microbatches)
    return _node(out, x, (weight,) if bias is None else (weight, bias), back)


def transformer_block(
    x: Tensor,
    ln1: tuple[Tensor, Tensor, float],
    qkv: tuple[Tensor, Tensor],
    proj: tuple[Tensor, Tensor],
    ln2: tuple[Tensor, Tensor, float],
    fc_in: tuple[Tensor, Tensor],
    fc_out: tuple[Tensor, Tensor],
    *,
    n_heads: int,
) -> Tensor:
    """A pre-norm attention + MLP block as one node.

    Computes ``x1 = x + attn(ln1(x))`` and ``x1 + fc_out(gelu(fc_in(ln2(x1))))``.
    Layer norms are ``(weight, bias, eps)``, affine layers ``(weight, bias)``.
    Inside the block each gradient array has at most two contributions (the
    residual and the branch), so their sum is the same whichever comes first.
    """
    m = x.microbatches
    h1, ln1_backward = _layer_norm(x.data, *ln1, m)
    a, attn_backward = _attention(h1, qkv, proj, n_heads, m)
    x1 = x.data + a
    h2, ln2_backward = _layer_norm(x1, *ln2, m)
    f1, fc_in_backward = _linear(h2, *fc_in, m)
    g, gelu_backward = _gelu(f1)
    f2, fc_out_backward = _linear(g, *fc_out, m)

    def back(grad: np.ndarray) -> np.ndarray:
        d_x1 = grad + ln2_backward(fc_in_backward(gelu_backward(fc_out_backward(grad))))
        return d_x1 + ln1_backward(attn_backward(d_x1))

    params = (*ln1[:2], *qkv, *proj, *ln2[:2], *fc_in, *fc_out)
    return _node(x1 + f2, x, params, back)


def cross_entropy_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits and integer targets.

    The mean is taken per microbatch: a scalar for unstacked ``logits``, one
    value per microbatch (shape ``(m,)``) when they stack ``m``.

    Args:
        logits: ``(..., vocab)`` unnormalised scores.
        targets: Integer array matching the leading dims of ``logits``, each
            in ``[0, vocab)``.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.shape[:-1]}"
        )
    _check_ids(targets, logits.shape[-1], "target")
    m = logits.microbatches
    flat_logits = logits.data.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    rows = np.arange(len(flat_targets))
    per_micro = len(flat_targets) // m
    shifted = flat_logits - flat_logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[rows, flat_targets]
    means = (logsumexp - picked).reshape(m, per_micro).mean(axis=1)
    out_data = means if m > 1 else means[0]

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            probs = np.exp(shifted - logsumexp[:, None])
            probs[rows, flat_targets] -= 1.0
            # Each microbatch's seed over its own row count, divided in
            # float64 and applied in float32.
            scale = (np.asarray(grad, dtype=np.float64) / per_micro).astype(np.float32)
            probs = probs.reshape(m, per_micro, -1)
            probs *= scale.reshape(m, 1, 1)
            logits._accumulate(probs.reshape(logits.shape))

    return Tensor._make(out_data, (logits,), backward, m)


def embedding(table: Tensor, indices: np.ndarray, microbatches: int = 1) -> Tensor:
    """Row lookup ``table[indices]`` with scatter-add backward.

    ``indices`` stack ``microbatches`` microbatches along axis 0; each one
    scatters into its own copy of the table's gradient, and the copies add
    in order.
    """
    indices = np.asarray(indices)
    _check_ids(indices, table.shape[0], "embedding index")
    out_data = table.data[indices]

    def backward(grad: np.ndarray) -> None:
        if table.requires_grad:
            n_rows, dim = table.shape
            full = np.zeros((microbatches * n_rows, dim), dtype=np.float32)
            offsets = np.arange(microbatches)[:, None] * n_rows
            rows = indices.reshape(microbatches, -1) + offsets
            np.add.at(full, rows.reshape(-1), grad.reshape(-1, dim))
            table._accumulate(full.reshape(microbatches, n_rows, dim), microbatches)

    return Tensor._make(out_data, (table,), backward, microbatches)
