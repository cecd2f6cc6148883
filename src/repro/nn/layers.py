"""Neural-network module system and basic layers."""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from repro.autograd.ops import embedding as embedding_op
from repro.autograd.ops import layer_norm, linear
from repro.autograd.tensor import Tensor

__all__ = ["Module", "Linear", "LayerNorm", "Embedding"]

#: GPT-2's embedding initialisation: ``N(0, 0.02^2)``.
_EMBEDDING_STD = 0.02


class Module:
    """Base class: recursive parameter discovery."""

    def parameters(self) -> Iterator[Tensor]:
        """All trainable tensors of this module and its children."""
        seen: set[int] = set()
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                if id(value) not in seen:
                    seen.add(id(value))
                    yield value
            elif isinstance(value, Module):
                yield from value.parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.parameters()
                    elif isinstance(item, Tensor) and item.requires_grad:
                        if id(item) not in seen:
                            seen.add(id(item))
                            yield item

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - interface
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``x @ W + b`` with GPT-2 style initialisation."""

    def __init__(self, in_dim: int, out_dim: int, *, rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        std = 1.0 / math.sqrt(in_dim)
        self.weight = Tensor(
            rng.normal(0.0, std, size=(in_dim, out_dim)).astype(np.float32),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_dim, dtype=np.float32), requires_grad=True)
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """Layer normalisation with learnable scale and shift."""

    #: Added to the variance before the square root (GPT-2's value).
    eps = 1e-5

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.weight = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.weight, self.bias, self.eps)


class Embedding(Module):
    """Token (or position) embedding table."""

    def __init__(self, n_rows: int, dim: int, *, rng: np.random.Generator) -> None:
        super().__init__()
        self.weight = Tensor(
            rng.normal(0.0, _EMBEDDING_STD, size=(n_rows, dim)).astype(np.float32),
            requires_grad=True,
        )

    def forward(self, indices: np.ndarray, microbatches: int = 1) -> Tensor:
        return embedding_op(self.weight, indices, microbatches)
