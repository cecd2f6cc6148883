"""A compact reverse-mode automatic differentiation engine on numpy.

This is the training substrate for the paper's convergence experiment
(§4.6, Figure 13): Mobius must produce the *same* gradients as GPipe because
both use synchronous microbatch accumulation.  Demonstrating that requires
real gradients, so the reproduction ships its own autodiff rather than
depending on PyTorch.

Design: a :class:`Tensor` wraps an ``ndarray`` and records, when gradients
are required, a backward closure over its parents.  ``backward()`` runs a
topological sweep accumulating ``grad`` arrays.  Broadcasting is supported
by summing gradients back over broadcast dimensions.

A tensor may hold ``microbatches`` equal microbatches stacked along axis 0
(the pipeline trainer runs each stage once over the whole batch).  Per
sample, forward values and activation gradients do not depend on that
grouping; only reductions into a smaller operand (a parameter gradient)
do.  :meth:`Tensor._accumulate` therefore reduces such a gradient within
each microbatch and then adds the microbatches in order, so a parameter
that one node updates gets the bits of running the microbatches one at a
time.

The only arithmetic here is ``+`` (the token and position embeddings'
broadcast sum) and ``*`` (the trainer's ``loss * (1.0 / m)``); every other
node is one of :mod:`repro.autograd.ops`'s fused operations.  The per-op
graph those are checked against lives with the tests
(``tests/autograd/per_op.py``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

__all__ = ["Tensor"]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _unbroadcast_microbatches(
    grad: np.ndarray, shape: tuple[int, ...], microbatches: int
) -> np.ndarray:
    """:func:`_unbroadcast` within each of ``microbatches`` stacked slices of
    ``grad``'s axis 0, then the slices' sum in order."""
    parts = grad.reshape(microbatches, -1, *grad.shape[1:])
    extra = grad.ndim - len(shape)
    if extra > 0:
        parts = parts.sum(axis=tuple(range(1, extra + 1)))
    axes = tuple(
        i + 1 for i, dim in enumerate(shape) if dim == 1 and parts.shape[i + 1] != 1
    )
    if axes:
        parts = parts.sum(axis=axes, keepdims=True)
    # Along a non-contiguous axis numpy adds the slices one after another:
    # the same bits as ``+=`` in microbatch order.
    return parts.sum(axis=0)


class Tensor:
    """A differentiable array.

    Attributes:
        data: The underlying float array (float32 by default).
        grad: Accumulated gradient, populated by :meth:`backward`.
        requires_grad: Whether this tensor participates in autodiff.
        microbatches: How many equal microbatches ``data`` stacks along
            axis 0 (1 for parameters and unstacked activations).
    """

    __slots__ = ("data", "grad", "requires_grad", "microbatches", "_backward", "_parents")

    def __init__(
        self,
        data,
        *,
        requires_grad: bool = False,
        microbatches: int = 1,
        _parents: Sequence["Tensor"] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.microbatches = microbatches
        self._parents = tuple(_parents) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # Autodiff core
    # ------------------------------------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        microbatches: int = 1,
    ) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        return Tensor(
            data,
            requires_grad=requires,
            microbatches=microbatches,
            _parents=parents,
            _backward=backward,
        )

    def _accumulate(self, grad: np.ndarray, microbatches: int = 1) -> None:
        """Add ``grad``, reduced to this tensor's shape.

        ``microbatches`` is the number of microbatches ``grad`` stacks along
        axis 0; a reduction over them runs within each one first.
        """
        grad = np.asarray(grad, dtype=np.float32)
        if microbatches == 1 or grad.shape == self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        else:
            grad = _unbroadcast_microbatches(grad, self.data.shape, microbatches)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Args:
            grad: Seed gradient, of this tensor's shape; defaults to 1 for
                scalar outputs.

        Raises:
            ValueError: If ``grad``'s shape is not this tensor's.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a seed needs a scalar output")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.data.shape:
            raise ValueError(
                f"seed shape {np.shape(grad)} does not match tensor shape {self.data.shape}"
            )
        # Topological order via iterative DFS.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic (backward closures accumulate into parents)
    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data
        m = max(self.microbatches, other.microbatches)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad, m)
            if other.requires_grad:
                other._accumulate(grad, m)

        return Tensor._make(out_data, (self, other), backward, m)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data
        m = max(self.microbatches, other.microbatches)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data, m)
            if other.requires_grad:
                other._accumulate(grad * self.data, m)

        return Tensor._make(out_data, (self, other), backward, m)

    __rmul__ = __mul__
