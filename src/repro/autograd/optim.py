"""The Adam optimizer for the autograd engine."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.autograd.tensor import Tensor

__all__ = ["Adam"]

#: Adam's moment decay rates and denominator epsilon (the paper's defaults).
_BETAS = (0.9, 0.999)
_EPS = 1e-8


class Adam:
    """Adam with bias correction (the paper's fine-tuning optimizer)."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3) -> None:
        self.params = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        b1, b2 = _BETAS
        correction1 = 1.0 - b1**self._t
        correction2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad * grad
            p.data -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + _EPS)
