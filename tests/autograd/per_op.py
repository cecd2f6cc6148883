"""The per-op autograd graph, kept as a test oracle.

The package trains on :mod:`repro.autograd.ops`'s fused nodes, and its
:class:`Tensor` keeps only ``+`` and ``*``.  The primitive ops below are the
graph the fused nodes are checked against: ``tests/nn/composed_block.py``
builds a transformer block from them, and ``tests/training/reference.py``
trains through :func:`loss`.  They are free functions over
:meth:`Tensor._make` rather than a ``Tensor`` subclass, because the
package's own ``+``, ``*`` and fused ops return base tensors.  Each body is
the numpy expression of the ``Tensor`` method it replaced, so the oracles'
bits are unchanged.

Some names shadow builtins (``sum``, ``pow``); import the module and call
them qualified, ``per_op.sum(x)``.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.ops import cross_entropy_logits
from repro.autograd.tensor import Tensor
from repro.nn.transformer import GPTModel

__all__ = [
    "div",
    "exp",
    "forward",
    "getitem",
    "log",
    "loss",
    "matmul",
    "mean",
    "pow",
    "reshape",
    "sub",
    "sum",
    "tanh",
    "transpose",
]


def sub(a, b) -> Tensor:
    return Tensor._coerce(a) + Tensor._coerce(b) * -1.0


def div(a, b) -> Tensor:
    return Tensor._coerce(a) * pow(Tensor._coerce(b), -1.0)


def pow(x: Tensor, exponent: float) -> Tensor:
    out_data = x.data**exponent

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * exponent * x.data ** (exponent - 1.0))

    return Tensor._make(out_data, (x,), backward)


def matmul(a: Tensor, b) -> Tensor:
    b = Tensor._coerce(b)
    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ grad)

    return Tensor._make(out_data, (a, b), backward)


def reshape(x: Tensor, *shape: int) -> Tensor:
    out_data = x.data.reshape(shape)
    original = x.data.shape

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad.reshape(original))

    return Tensor._make(out_data, (x,), backward)


def transpose(x: Tensor, *axes: int) -> Tensor:
    axes = axes or tuple(reversed(range(x.data.ndim)))
    out_data = x.data.transpose(axes)
    inverse = np.argsort(axes)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad.transpose(inverse))

    return Tensor._make(out_data, (x,), backward)


def _is_basic_index(index) -> bool:
    """True for numpy basic indices: ints, slices, ``None``, ``...`` or tuples of these.

    A basic index selects each element at most once, so its gradient can be
    scattered with ``+=`` instead of the slower, duplicate-safe ``np.add.at``.
    """
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None
        or item is Ellipsis
        or isinstance(item, slice)
        or (isinstance(item, (int, np.integer)) and not isinstance(item, bool))
        for item in items
    )


def getitem(x: Tensor, index) -> Tensor:
    """``x[index]``, differentiable."""
    out_data = x.data[index]
    basic = _is_basic_index(index)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            if basic:
                full[index] += grad
            else:
                np.add.at(full, index, grad)
            x._accumulate(full)

    return Tensor._make(out_data, (x,), backward)


def sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = x.data.sum(axis=axis, keepdims=keepdims)
    shape = x.data.shape

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(a % len(shape) for a in axes):
                g = np.expand_dims(g, ax)
        x._accumulate(np.broadcast_to(g, shape))

    return Tensor._make(out_data, (x,), backward)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = x.data.size if axis is None else np.prod(
        [x.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return sum(x, axis=axis, keepdims=keepdims) * (1.0 / float(count))


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data)

    return Tensor._make(out_data, (x,), backward)


def log(x: Tensor) -> Tensor:
    out_data = np.log(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad / x.data)

    return Tensor._make(out_data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - out_data**2))

    return Tensor._make(out_data, (x,), backward)


def forward(model: GPTModel, token_ids: np.ndarray) -> Tensor:
    """The whole model's logits: its pipeline layers in order."""
    out: Tensor | np.ndarray = token_ids
    for layer in model.pipeline_layers:
        out = layer(out)
    return out


def loss(model: GPTModel, token_ids: np.ndarray, targets: np.ndarray) -> Tensor:
    """Mean next-token cross entropy."""
    return cross_entropy_logits(forward(model, token_ids), targets)
