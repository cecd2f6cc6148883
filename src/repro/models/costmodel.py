"""Analytic cost model: layer and stage execution time and memory.

This is the bridge between :mod:`repro.models.spec` (sizes and FLOPs) and the
schedulers/partitioners, replacing on-GPU measurement.  All schedulers and
the MIP partitioner consume :class:`StageCost` aggregates, so Mobius,
GPipe and DeepSpeed are compared on identical cost assumptions.

Memory accounting follows mixed-precision training with activation
recomputation (checkpointing), the configuration used throughout §4:

* a stage executing *forward* holds its FP16 parameters, a rolling activation
  buffer, transient working memory, and one stashed input activation per
  in-flight microbatch (the recompute checkpoint);
* a stage executing *backward* additionally holds FP16 gradients and the
  recomputed intra-stage activations of one microbatch.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence
from functools import cached_property

from repro.hardware.gpu import GPUSpec, Precision
from repro.models.spec import FP16_BYTES, LayerSpec, ModelSpec

__all__ = [
    "LayerCost",
    "StageCost",
    "CostModel",
    "FRAMEWORK_OVERHEAD_BYTES",
    "STATE_BYTES_PER_PARAM",
    "ordered_sum",
]

#: GPU bytes per parameter of a stage that keeps all its training states
#: resident (GPipe-style): FP16 params + FP16 grads + FP32 master weights
#: and Adam moments.
STATE_BYTES_PER_PARAM = 16

#: Constant per-GPU memory claimed by the framework (CUDA context, NCCL
#: buffers, allocator slack) and unavailable to stage data.
FRAMEWORK_OVERHEAD_BYTES = int(1.5 * 1024**3)


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum, ``((0.0 + a) + b) + ...``.

    Since Python 3.12, ``sum()`` over floats compensates its rounding
    (Neumaier), so stage times and hence plans would depend on the
    interpreter.  This fold gives the bits of 3.10/3.11 ``sum()`` on every
    interpreter, and the partition search's running sums equal it exactly.
    """
    total = 0.0
    for value in values:
        total += value
    return total


@dataclasses.dataclass(frozen=True)
class LayerCost:
    """Per-microbatch execution cost of one layer."""

    layer: LayerSpec
    fwd_seconds: float
    bwd_seconds: float
    param_bytes: int
    activation_bytes: int
    working_bytes: int


@dataclasses.dataclass(frozen=True)
class StageCost:
    """Aggregated execution cost of a contiguous run of layers.

    All times are per-microbatch; memory methods take the microbatch count
    ``m`` where the footprint scales with in-flight microbatches.

    The aggregates are :func:`functools.cached_property` values: schedulers
    read them many times per plan, and re-summing ``layer_costs`` on every
    access dominated the uncached suite.  Caching is sound because the
    dataclass is frozen, and invisible to equality/fingerprinting because
    both iterate ``dataclasses.fields`` only.  Stage times are
    :func:`ordered_sum` folds, so they do not depend on the interpreter.
    """

    layer_costs: tuple[LayerCost, ...]
    input_activation_bytes: int

    @cached_property
    def param_bytes(self) -> int:
        """FP16 parameter bytes — the stage's DRAM-to-GPU upload size."""
        return sum(c.param_bytes for c in self.layer_costs)

    @property
    def grad_bytes(self) -> int:
        """FP16 gradient bytes — the stage's GPU-to-DRAM offload size."""
        return self.param_bytes

    @cached_property
    def fwd_seconds(self) -> float:
        """Forward compute time for one microbatch."""
        return ordered_sum(c.fwd_seconds for c in self.layer_costs)

    @cached_property
    def bwd_seconds(self) -> float:
        """Backward (incl. recompute) compute time for one microbatch."""
        return ordered_sum(c.bwd_seconds for c in self.layer_costs)

    @property
    def output_activation_bytes(self) -> int:
        """Boundary activation sent to the next stage, per microbatch."""
        if not self.layer_costs:
            return 0
        return self.layer_costs[-1].activation_bytes

    @cached_property
    def max_working_bytes(self) -> int:
        return max((c.working_bytes for c in self.layer_costs), default=0)

    @cached_property
    def intra_activation_bytes(self) -> int:
        """All intra-stage boundary activations of one microbatch (the
        recompute footprint during backward)."""
        return sum(c.activation_bytes for c in self.layer_costs)

    @cached_property
    def _rolling_buffer_bytes(self) -> int:
        peak = 0
        prev_act = self.input_activation_bytes
        for cost in self.layer_costs:
            peak = max(peak, prev_act + cost.activation_bytes + cost.working_bytes)
            prev_act = cost.activation_bytes
        return peak

    def rolling_buffer_bytes(self) -> int:
        """Peak transient during forward of one microbatch: the largest
        (input + output + working) window over the stage's layers."""
        return self._rolling_buffer_bytes

    @cached_property
    def _mem_fwd_base(self) -> int:
        return self.param_bytes + self._rolling_buffer_bytes

    @cached_property
    def _mem_bwd_base(self) -> int:
        recompute = self.intra_activation_bytes + self.max_working_bytes
        grad_in = self.output_activation_bytes  # incoming activation gradient
        return self.param_bytes + self.grad_bytes + recompute + grad_in

    def mem_fwd(self, m: int) -> int:
        """GPU bytes needed while this stage runs forward on ``m`` in-flight
        microbatches (Eq. 4's S_j^f); the ``m``-scaled term is the stash of
        recompute-checkpoint input activations."""
        return self._mem_fwd_base + m * self.input_activation_bytes

    def mem_bwd(self, m: int) -> int:
        """GPU bytes needed while this stage runs backward (Eq. 4's S_j^b)."""
        return self._mem_bwd_base + m * self.input_activation_bytes

    def resident_bytes_static(self) -> int:
        """All-in-GPU-memory footprint of the stage's *states* (GPipe-style,
        :data:`STATE_BYTES_PER_PARAM`)."""
        return self.param_bytes // FP16_BYTES * STATE_BYTES_PER_PARAM


class CostModel:
    """Maps model layers to execution costs on a specific GPU.

    Args:
        gpu_spec: Target device.
        microbatch_size: Sequences per microbatch.
        recompute: Whether activation checkpointing is on (default, as in
            the paper's evaluation).
        precision: Kernel precision (mixed-precision training -> FP16).
    """

    def __init__(
        self,
        gpu_spec: GPUSpec,
        microbatch_size: int,
        *,
        recompute: bool = True,
        precision: Precision = Precision.FP16,
    ) -> None:
        if microbatch_size <= 0:
            raise ValueError(f"microbatch_size must be positive, got {microbatch_size}")
        self.gpu_spec = gpu_spec
        self.microbatch_size = microbatch_size
        self.recompute = recompute
        self.precision = precision
        self._cache: dict[tuple, LayerCost] = {}

    def layer_cost(self, layer: LayerSpec) -> LayerCost:
        """Execution cost of one layer for one microbatch."""
        key = layer.signature or (layer.name,)
        cached = self._cache.get(key)
        if cached is not None:
            return dataclasses.replace(cached, layer=layer)
        cost = LayerCost(
            layer=layer,
            fwd_seconds=self.gpu_spec.compute_seconds(
                layer.fwd_flops(self.microbatch_size), self.precision
            ),
            bwd_seconds=self.gpu_spec.compute_seconds(
                layer.bwd_flops(self.microbatch_size, recompute=self.recompute),
                self.precision,
            ),
            param_bytes=layer.param_bytes(FP16_BYTES),
            activation_bytes=layer.activation_bytes(self.microbatch_size),
            working_bytes=layer.working_bytes(self.microbatch_size),
        )
        self._cache[key] = cost
        return cost

    def stage_cost(self, model: ModelSpec, start: int, stop: int) -> StageCost:
        """Aggregate cost of the stage spanning layers ``[start, stop)``."""
        layers = model.layer_range(start, stop)
        input_act = (
            model.layers[start - 1].activation_bytes(self.microbatch_size)
            if start > 0
            else model.layers[0].activation_bytes(self.microbatch_size)
        )
        return StageCost(
            layer_costs=tuple(self.layer_cost(layer) for layer in layers),
            input_activation_bytes=input_act,
        )

    def stage_costs_for_partition(
        self, model: ModelSpec, boundaries: Sequence[int]
    ) -> list[StageCost]:
        """Stage costs for a partition given as boundary indices.

        ``boundaries`` are the cut points: a partition into stages
        ``[0,b0) [b0,b1) ... [bk,L)``.  Must be strictly increasing and lie
        inside ``(0, L)``.
        """
        cuts = [0, *boundaries, model.n_layers]
        if any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise ValueError(f"boundaries not strictly increasing: {boundaries!r}")
        return [self.stage_cost(model, a, b) for a, b in zip(cuts, cuts[1:])]

    def usable_gpu_bytes(self) -> int:
        """Per-GPU memory available for stage data (Eq. 4's G)."""
        return self.gpu_spec.memory_bytes - FRAMEWORK_OVERHEAD_BYTES
