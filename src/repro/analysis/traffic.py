"""Analytic communication-traffic model (Eqs. 1-2, Figure 6).

Computes the per-step communication volume of Mobius and DeepSpeed from
model sizes alone, mirroring §3.1's derivation:

* Mobius moves two FP16 copies of the parameters (forward and backward
  swap-in), twice the stashed activations, and one FP16 copy of gradients —
  about ``1.5x`` the FP32 model bytes, independent of GPU count;
* DeepSpeed moves ``2N`` FP16 parameter copies (per-GPU layer gathers in
  both traversals), twice the activations, and ``N`` FP16 gradient copies —
  about ``1.5N x`` the FP32 model bytes.

The measured counterparts come from simulator traces
(:meth:`repro.sim.trace.Trace.total_transfer_bytes`); Figure 6 compares both.
"""

from __future__ import annotations

import dataclasses

from repro.models.spec import FP16_BYTES, FP32_BYTES, ModelSpec

__all__ = ["TrafficEstimate", "mobius_traffic", "deepspeed_traffic", "model_size_bytes"]


@dataclasses.dataclass(frozen=True)
class TrafficEstimate:
    """Per-step communication volume decomposition, in bytes."""

    parameters: float
    activations: float
    gradients: float

    @property
    def total(self) -> float:
        return self.parameters + self.activations + self.gradients


def model_size_bytes(model: ModelSpec) -> int:
    """The "size of model parameters" reference line of Figure 6 (FP32)."""
    return model.param_bytes(FP32_BYTES)


def _activation_bytes_per_step(model: ModelSpec, microbatch_size: int, n_microbatches: int) -> float:
    """Stashed boundary activations for one step (small under recompute)."""
    per_microbatch = sum(
        layer.activation_bytes(microbatch_size) for layer in model.layers[:-1]
    )
    return per_microbatch * n_microbatches


def mobius_traffic(
    model: ModelSpec,
    microbatch_size: int,
    n_microbatches: int,
) -> TrafficEstimate:
    """Eq. 1: Mobius's per-step traffic (GPU-count independent)."""
    fp16 = model.param_bytes(FP16_BYTES)
    return TrafficEstimate(
        parameters=2.0 * fp16,
        activations=2.0 * _activation_bytes_per_step(model, microbatch_size, n_microbatches),
        gradients=1.0 * fp16,
    )


def deepspeed_traffic(
    model: ModelSpec,
    microbatch_size: int,
    n_gpus: int,
    *,
    overhead: float = 1.22,
) -> TrafficEstimate:
    """Eq. 2: DeepSpeed's per-step traffic (linear in GPU count).

    Args:
        overhead: Runtime gather overhead; the paper measures 7.3x model
            size against the analytic 6x for N=4.
    """
    fp16 = model.param_bytes(FP16_BYTES)
    return TrafficEstimate(
        parameters=2.0 * n_gpus * fp16 * overhead,
        activations=2.0 * _activation_bytes_per_step(model, microbatch_size, 1) * n_gpus,
        gradients=1.0 * n_gpus * fp16,
    )
