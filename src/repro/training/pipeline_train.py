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
    "split_batch",
]


def split_batch(batch: Batch, n_microbatches: int) -> list[Batch]:
    """Split a global batch into equal microbatches."""
    if batch.inputs.shape[0] % n_microbatches:
        raise ValueError(
            f"batch size {batch.inputs.shape[0]} not divisible by "
            f"{n_microbatches} microbatches"
        )
    inputs = np.array_split(batch.inputs, n_microbatches)
    targets = np.array_split(batch.targets, n_microbatches)
    return [Batch(i, t) for i, t in zip(inputs, targets)]


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
        if resident_limit < 1:
            raise ValueError(f"resident_limit must be at least 1, got {resident_limit}")
        self.model = model
        self.n_gpus = n_gpus
        self.n_microbatches = n_microbatches or n_gpus
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

    def _stage_forward(self, stage: int, micro_input):
        """Forward one microbatch through one stage.

        Returns ``(boundary_input, output)`` where ``boundary_input`` is the
        detached graph root that will receive the activation gradient.
        """
        start, stop = self.partition.stage_range(stage)
        if stage == 0:
            boundary = None
            out = micro_input  # raw token ids
        else:
            boundary = Tensor(micro_input.data.copy(), requires_grad=True)
            out = boundary
        for layer in self.model.pipeline_layers[start:stop]:
            out = layer(out)
        return boundary, out

    def step(self, batch: Batch) -> float:
        """One synchronous step; returns the mean loss."""
        micros = split_batch(batch, self.n_microbatches)
        s, m = self.partition.n_stages, len(micros)
        n = self.n_gpus
        self.optimizer.zero_grad()

        acts = [[None] * m for _ in range(s)]
        for j in range(s):
            self._upload(j, "forward")
            for mb in range(m):
                source = micros[mb].inputs if j == 0 else acts[j - 1][mb][1]
                acts[j][mb] = self._stage_forward(j, source)
            if j < s - n:  # the top N stages stay resident for backward
                self._free(j, "forward")

        total = 0.0
        seeds = [[None] * m for _ in range(s)]
        for j in range(s - 1, -1, -1):
            self._upload(j, "backward")
            for mb in range(m):
                boundary, out = acts[j][mb]
                if j == s - 1:
                    loss = cross_entropy_logits(out, micros[mb].targets) * (1.0 / m)
                    total += loss.item()
                    loss.backward()
                else:
                    out.backward(seeds[j + 1][mb])
                seed = None if boundary is None else boundary.grad
                if j:
                    seeds[j][mb] = seed
            self._free(j, "backward")

        self.optimizer.step()
        return total
