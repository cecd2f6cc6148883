"""Pipeline-schedule training on the numpy transformer.

Executes real gradient computation in the *order* the schedulers prescribe:

* stages are contiguous runs of the model's pipeline layers;
* stage boundaries cut the autograd graph — each stage's forward consumes a
  detached activation and backward receives the boundary activation
  gradient from its successor, exactly like activations/activation
  gradients crossing GPUs;
* stage parameters "live in DRAM" and at most ``resident_limit`` stages
  may be resident per virtual GPU at any moment (current + prefetched),
  with every swap recorded.

One trainer runs both systems, because the schedules differ only in their
stage count (§3.1): GPipe is :class:`MobiusScheduleTrainer` with
``n_stages == n_gpus`` (one resident stage per GPU, nothing swapped between
the forward and backward passes), Mobius the same loop with more stages than
GPUs.  Both accumulate the same averaged microbatch gradients and update
synchronously, so their parameter trajectories match plain accumulation
bit-for-bit up to float summation order — the §3.1 convergence argument,
which the tests assert.

A step runs each stage's forward and backward once, over the whole batch
with its microbatches stacked along axis 0 (the activations carry the
microbatch count, :attr:`Tensor.microbatches`).  Per sample, the forward
values and activation gradients do not depend on that grouping: matmuls
run one gemm per sample, layer norm and softmax reduce along each row, and
attention runs per sample and head.  Only the reductions into parameter
gradients and the loss see the split, and they reduce within each
microbatch and then add the microbatches in order, so every parameter gets
the bits of running the microbatches one at a time.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.autograd.ops import cross_entropy_logits
from repro.autograd.optim import Adam
from repro.autograd.tensor import Tensor
from repro.nn.data import Batch
from repro.nn.transformer import GPTModel

__all__ = [
    "SwapEvent",
    "StagePartition",
    "MobiusScheduleTrainer",
]


@dataclasses.dataclass(frozen=True)
class SwapEvent:
    """One stage swap between DRAM and virtual GPU memory."""

    kind: str  # "upload" | "free"
    stage: int
    gpu: int
    phase: str  # "forward" | "backward"


@dataclasses.dataclass(frozen=True)
class StagePartition:
    """Contiguous partition of a model's pipeline layers into stages."""

    boundaries: tuple[int, ...]
    n_layers: int

    @property
    def n_stages(self) -> int:
        return len(self.boundaries) + 1

    def stage_range(self, stage: int) -> tuple[int, int]:
        cuts = (0, *self.boundaries, self.n_layers)
        return cuts[stage], cuts[stage + 1]

    @staticmethod
    def uniform(n_layers: int, n_stages: int) -> "StagePartition":
        if not 1 <= n_stages <= n_layers:
            raise ValueError(f"cannot split {n_layers} layers into {n_stages} stages")
        boundaries = tuple(
            round(n_layers * i / n_stages) for i in range(1, n_stages)
        )
        return StagePartition(boundaries, n_layers)


class MobiusScheduleTrainer:
    """Mobius: more stages than GPUs, swapped through heterogeneous memory.

    Stage ``j`` executes on virtual GPU ``j % n_gpus``; at most
    ``resident_limit`` stages are resident per GPU (the current one plus the
    prefetched next one).  Swaps are recorded in :attr:`swap_events` and the
    residency invariant is enforced, so tests can check the §3.1 schedule
    semantics while the gradients stay identical to GPipe's.  With
    ``n_stages=n_gpus`` this is the GPipe schedule: all forward, then all
    backward, one resident stage per GPU.
    """

    def __init__(
        self,
        model: GPTModel,
        n_gpus: int,
        n_stages: int | None = None,
        *,
        lr: float = 3e-4,
        n_microbatches: int | None = None,
        resident_limit: int = 2,
    ) -> None:
        if n_gpus < 1:
            raise ValueError(f"n_gpus must be at least 1, got {n_gpus}")
        if n_microbatches is None:
            n_microbatches = n_gpus
        if n_microbatches < 1:
            raise ValueError(f"n_microbatches must be at least 1, got {n_microbatches}")
        if resident_limit < 1:
            raise ValueError(f"resident_limit must be at least 1, got {resident_limit}")
        self.model = model
        self.n_gpus = n_gpus
        self.n_microbatches = n_microbatches
        stages = n_stages or min(2 * n_gpus, model.n_pipeline_layers)
        self.partition = StagePartition.uniform(model.n_pipeline_layers, stages)
        self.optimizer = Adam(model.parameters(), lr=lr)
        self.resident_limit = resident_limit
        self.swap_events: list[SwapEvent] = []
        self._resident: dict[int, list[int]] = {g: [] for g in range(n_gpus)}

    def gpu_of_stage(self, stage: int) -> int:
        return stage % self.n_gpus

    def _upload(self, stage: int, phase: str) -> None:
        gpu = self.gpu_of_stage(stage)
        resident = self._resident[gpu]
        if stage in resident:
            return
        if len(resident) >= self.resident_limit:
            evicted = resident.pop(0)
            self.swap_events.append(SwapEvent("free", evicted, gpu, phase))
        resident.append(stage)
        self.swap_events.append(SwapEvent("upload", stage, gpu, phase))

    def _free(self, stage: int, phase: str) -> None:
        gpu = self.gpu_of_stage(stage)
        if stage in self._resident[gpu]:
            self._resident[gpu].remove(stage)
            self.swap_events.append(SwapEvent("free", stage, gpu, phase))

    def _stage_forward(self, stage: int, source):
        """Forward the stacked microbatches through one stage.

        ``source`` is the batch's token ids for stage 0 and the previous
        stage's output otherwise.  Returns ``(boundary_input, output)``
        where ``boundary_input`` is the detached graph root that will
        receive the activation gradient.
        """
        start, stop = self.partition.stage_range(stage)
        layers = self.model.pipeline_layers[start:stop]
        if stage == 0:
            boundary = None
            out = layers[0](source, microbatches=self.n_microbatches)
            layers = layers[1:]
        else:
            boundary = Tensor(
                source.data.copy(), requires_grad=True, microbatches=source.microbatches
            )
            out = boundary
        for layer in layers:
            out = layer(out)
        return boundary, out

    def step(self, batch: Batch) -> float:
        """One synchronous step; returns the mean loss."""
        if batch.inputs.shape[0] % self.n_microbatches:
            raise ValueError(
                f"batch size {batch.inputs.shape[0]} not divisible by "
                f"{self.n_microbatches} microbatches"
            )
        s, n = self.partition.n_stages, self.n_gpus
        self.optimizer.zero_grad()

        acts = []
        for j in range(s):
            self._upload(j, "forward")
            acts.append(self._stage_forward(j, batch.inputs if j == 0 else acts[-1][1]))
            if j < s - n:  # the top N stages stay resident for backward
                self._free(j, "forward")

        total = 0.0
        seed = None
        for j in range(s - 1, -1, -1):
            self._upload(j, "backward")
            boundary, out = acts[j]
            if j == s - 1:
                loss = cross_entropy_logits(out, batch.targets) * (1.0 / self.n_microbatches)
                for value in loss.data.reshape(-1).tolist():  # microbatch order
                    total += value
                loss.backward(np.ones_like(loss.data))
            else:
                out.backward(seed)
            seed = None if boundary is None else boundary.grad
            self._free(j, "backward")

        self.optimizer.step()
        return total
