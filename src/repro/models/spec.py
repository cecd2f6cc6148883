"""Model descriptions: layers, parameter counts, FLOPs, activation sizes.

The paper fine-tunes GPT-like transformers (Table 3).  For the simulation we
need, per layer: parameter bytes (FP16 working copy and FP32 master copy),
forward/backward FLOPs as a function of microbatch size and sequence length,
output-activation bytes, and the transient working memory of executing the
layer.  Standard transformer arithmetic is used throughout (e.g. a block has
~12h^2 parameters and a forward pass costs ~24*b*s*h^2 + 4*b*s^2*h FLOPs).
"""

from __future__ import annotations

import dataclasses

__all__ = ["LayerKind", "LayerSpec", "ModelSpec", "FP16_BYTES", "FP32_BYTES", "build_gpt_like", "build_vit_like"]

FP16_BYTES = 2
FP32_BYTES = 4

#: Bytes of optimizer state per parameter with Adam + FP32 master weights:
#: master copy (4) + momentum (4) + variance (4).
OPTIMIZER_BYTES_PER_PARAM = 12


class LayerKind:
    """Layer categories used for similarity grouping."""

    EMBEDDING = "embedding"
    TRANSFORMER_BLOCK = "transformer_block"
    FINAL_NORM = "final_norm"
    LM_HEAD = "lm_head"


@dataclasses.dataclass(frozen=True)
class LayerSpec:
    """One model layer as seen by the partitioner.

    Attributes:
        name: Unique layer name within its model.
        kind: One of :class:`LayerKind`; used for layer-similarity grouping.
        param_count: Number of parameters.
        fwd_flops_per_sample: Forward FLOPs for one sequence (batch of 1).
        activation_elems_per_sample: Elements in the layer's output
            activation for one sequence (what flows to the next stage).
        working_elems_per_sample: Peak transient elements while executing
            the layer (attention scores, MLP intermediates, ...).
        signature: Hashable similarity key; layers with equal signatures are
            assumed to profile identically (§3.2 "layer similarity").
    """

    name: str
    kind: str
    param_count: int
    fwd_flops_per_sample: float
    activation_elems_per_sample: int
    working_elems_per_sample: int
    signature: tuple = ()

    def param_bytes(self, dtype_bytes: int = FP16_BYTES) -> int:
        """Parameter footprint at the given precision."""
        return self.param_count * dtype_bytes

    def fwd_flops(self, microbatch_size: int) -> float:
        """Forward FLOPs for a microbatch."""
        return self.fwd_flops_per_sample * microbatch_size

    def bwd_flops(self, microbatch_size: int, *, recompute: bool = True) -> float:
        """Backward FLOPs for a microbatch.

        The backward pass costs ~2x the forward; activation recomputation
        (gradient checkpointing, used by all systems in the paper's
        evaluation) replays the forward first, adding another 1x.
        """
        factor = 3.0 if recompute else 2.0
        return factor * self.fwd_flops(microbatch_size)

    def activation_bytes(self, microbatch_size: int, dtype_bytes: int = FP16_BYTES) -> int:
        """Bytes of the layer's boundary activation for a microbatch."""
        return self.activation_elems_per_sample * microbatch_size * dtype_bytes

    def working_bytes(self, microbatch_size: int, dtype_bytes: int = FP16_BYTES) -> int:
        """Peak transient memory while executing the layer on a microbatch."""
        return self.working_elems_per_sample * microbatch_size * dtype_bytes


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """A model: an ordered list of layers plus global shape metadata.

    Attributes:
        name: Label, e.g. ``"GPT-15B"``.
        layers: Ordered layers, input side first.
        hidden_dim: Transformer hidden dimension.
        n_heads: Attention head count.
        seq_len: Training sequence length (fixed at 512 in §4).
        vocab_size: Vocabulary size.
        default_microbatch_size: Table 3's microbatch size for this model.
    """

    name: str
    layers: tuple[LayerSpec, ...]
    hidden_dim: int
    n_heads: int
    seq_len: int
    vocab_size: int
    default_microbatch_size: int = 1

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def param_count(self) -> int:
        """Total parameters across all layers."""
        return sum(layer.param_count for layer in self.layers)

    def param_bytes(self, dtype_bytes: int = FP16_BYTES) -> int:
        """Total parameter bytes at the given precision."""
        return self.param_count * dtype_bytes

    def layer_range(self, start: int, stop: int) -> tuple[LayerSpec, ...]:
        """Layers ``start .. stop-1`` (used to materialise stages)."""
        if not 0 <= start < stop <= self.n_layers:
            raise ValueError(
                f"invalid layer range [{start}, {stop}) for {self.n_layers} layers"
            )
        return self.layers[start:stop]

    def similarity_groups(self) -> dict[tuple, list[int]]:
        """Indices of layers grouped by profile signature (§3.2).

        Large models are dominated by identical transformer blocks; the
        profiler measures one representative per group.
        """
        groups: dict[tuple, list[int]] = {}
        for index, layer in enumerate(self.layers):
            groups.setdefault(layer.signature, []).append(index)
        return groups

    def dram_footprint_bytes(self) -> int:
        """DRAM needed to host the model for heterogeneous-memory training:
        FP16 working copy + FP16 gradients + Adam optimizer state."""
        p = self.param_count
        return p * (FP16_BYTES + FP16_BYTES + OPTIMIZER_BYTES_PER_PARAM)


def build_vit_like(
    name: str,
    *,
    n_blocks: int,
    hidden_dim: int,
    n_heads: int,
    image_size: int = 224,
    patch_size: int = 16,
    n_classes: int = 1000,
    default_microbatch_size: int = 8,
) -> ModelSpec:
    """Construct a ViT-like :class:`ModelSpec` (the intro's CV workloads).

    Same transformer-block arithmetic as the GPT builder with the sequence
    length set by the patch grid; the boundary layers are the patch
    embedding and the classification head.
    """
    if image_size % patch_size:
        raise ValueError(
            f"image_size {image_size} not divisible by patch_size {patch_size}"
        )
    seq_len = (image_size // patch_size) ** 2 + 1  # patches + CLS token
    h, s = hidden_dim, seq_len
    patch_dim = 3 * patch_size * patch_size
    layers: list[LayerSpec] = [
        LayerSpec(
            name="patch_embed",
            kind=LayerKind.EMBEDDING,
            param_count=patch_dim * h + s * h,
            fwd_flops_per_sample=2.0 * s * patch_dim * h,
            activation_elems_per_sample=s * h,
            working_elems_per_sample=2 * s * h,
            signature=(LayerKind.EMBEDDING, h, patch_dim),
        )
    ]
    block_params = 12 * h * h + 13 * h
    block_fwd_flops = 24.0 * s * h * h + 4.0 * s * s * h
    block_working = 8 * s * h + n_heads * s * s
    for index in range(n_blocks):
        layers.append(
            LayerSpec(
                name=f"block{index}",
                kind=LayerKind.TRANSFORMER_BLOCK,
                param_count=block_params,
                fwd_flops_per_sample=block_fwd_flops,
                activation_elems_per_sample=s * h,
                working_elems_per_sample=block_working,
                signature=(LayerKind.TRANSFORMER_BLOCK, h, n_heads),
            )
        )
    layers.append(
        LayerSpec(
            name="cls_head",
            kind=LayerKind.LM_HEAD,
            param_count=h * n_classes + 2 * h,
            fwd_flops_per_sample=2.0 * h * n_classes + 5.0 * s * h,
            activation_elems_per_sample=n_classes,
            working_elems_per_sample=s * h,
            signature=(LayerKind.LM_HEAD, h, n_classes),
        )
    )
    return ModelSpec(
        name=name,
        layers=tuple(layers),
        hidden_dim=h,
        n_heads=n_heads,
        seq_len=s,
        vocab_size=n_classes,
        default_microbatch_size=default_microbatch_size,
    )


def build_gpt_like(
    name: str,
    *,
    n_blocks: int,
    hidden_dim: int,
    n_heads: int,
    seq_len: int = 512,
    vocab_size: int = 50_257,
    default_microbatch_size: int = 1,
    include_embedding: bool = True,
) -> ModelSpec:
    """Construct a GPT-like :class:`ModelSpec` from Table 3 style shapes.

    Layer inventory: token+position embedding, ``n_blocks`` identical
    transformer blocks, a final layer norm, and the LM head projection.
    """
    if n_blocks <= 0 or hidden_dim <= 0 or n_heads <= 0:
        raise ValueError("model shape parameters must be positive")
    if n_heads > hidden_dim:
        raise ValueError(f"n_heads {n_heads} exceeds hidden_dim {hidden_dim}")
    h, s, v = hidden_dim, seq_len, vocab_size
    layers: list[LayerSpec] = []

    if include_embedding:
        layers.append(
            LayerSpec(
                name="embedding",
                kind=LayerKind.EMBEDDING,
                param_count=v * h + s * h,
                fwd_flops_per_sample=2.0 * s * h,  # lookup + add, negligible
                activation_elems_per_sample=s * h,
                working_elems_per_sample=2 * s * h,
                signature=(LayerKind.EMBEDDING, h, v),
            )
        )

    block_params = 12 * h * h + 13 * h
    block_fwd_flops = 24.0 * s * h * h + 4.0 * s * s * h
    # Peak transient: QKV/MLP intermediates ~8*s*h plus attention scores
    # n_heads * s^2 (stored per head).
    block_working = 8 * s * h + n_heads * s * s
    for index in range(n_blocks):
        layers.append(
            LayerSpec(
                name=f"block{index}",
                kind=LayerKind.TRANSFORMER_BLOCK,
                param_count=block_params,
                fwd_flops_per_sample=block_fwd_flops,
                activation_elems_per_sample=s * h,
                working_elems_per_sample=block_working,
                signature=(LayerKind.TRANSFORMER_BLOCK, h, n_heads),
            )
        )

    layers.append(
        LayerSpec(
            name="final_norm",
            kind=LayerKind.FINAL_NORM,
            param_count=2 * h,
            fwd_flops_per_sample=5.0 * s * h,
            activation_elems_per_sample=s * h,
            working_elems_per_sample=2 * s * h,
            signature=(LayerKind.FINAL_NORM, h),
        )
    )
    layers.append(
        LayerSpec(
            name="lm_head",
            kind=LayerKind.LM_HEAD,
            param_count=v * h,
            fwd_flops_per_sample=2.0 * s * h * v,
            activation_elems_per_sample=s * v,
            working_elems_per_sample=s * v,
            signature=(LayerKind.LM_HEAD, h, v),
        )
    )

    return ModelSpec(
        name=name,
        layers=tuple(layers),
        hidden_dim=h,
        n_heads=n_heads,
        seq_len=s,
        vocab_size=v,
        default_microbatch_size=default_microbatch_size,
    )
