"""Model substrate: transformer specs, analytic cost model, and profiler."""

from repro.models.costmodel import (
    FRAMEWORK_OVERHEAD_BYTES,
    CostModel,
    LayerCost,
    StageCost,
)
from repro.models.profiler import ProfileReport, Profiler
from repro.models.spec import (
    FP16_BYTES,
    FP32_BYTES,
    LayerKind,
    LayerSpec,
    ModelSpec,
    build_gpt_like,
    build_vit_like,
)
from repro.models.zoo import (
    gpt2_small,
    gpt_3b,
    gpt_8b,
    gpt_15b,
    gpt_51b,
    model_by_name,
)

__all__ = [
    "CostModel",
    "FP16_BYTES",
    "FP32_BYTES",
    "FRAMEWORK_OVERHEAD_BYTES",
    "LayerCost",
    "LayerKind",
    "LayerSpec",
    "ModelSpec",
    "ProfileReport",
    "Profiler",
    "StageCost",
    "build_gpt_like",
    "build_vit_like",
    "gpt2_small",
    "gpt_3b",
    "gpt_8b",
    "gpt_15b",
    "gpt_51b",
    "model_by_name",
]
