"""The evaluation's model zoo (Table 3) plus the convergence model.

Table 3 of the paper:

====================  =====  ======  ======  ==========
Parameters (billion)  Heads  Hidden  Layers  Microbatch
====================  =====  ======  ======  ==========
3                     32     2048    64      2
8                     32     4096    40      2
15                    64     5120    40      1
51                    80     9216    50      1
====================  =====  ======  ======  ==========

Sequence length is fixed to 512.  Layer counts refer to transformer blocks;
the built specs additionally carry the embedding, final norm and LM head.
"""

from __future__ import annotations

from repro.models.spec import ModelSpec, build_gpt_like, build_vit_like

__all__ = [
    "vit_huge",
    "gpt_3b",
    "gpt_8b",
    "gpt_15b",
    "gpt_51b",
    "gpt2_small",
    "model_by_name",
]


def gpt_3b() -> ModelSpec:
    """The 3B model: 64 layers, hidden 2048, 32 heads, microbatch 2."""
    return build_gpt_like(
        "GPT-3B", n_blocks=64, hidden_dim=2048, n_heads=32, default_microbatch_size=2
    )


def gpt_8b() -> ModelSpec:
    """The 8B model: 40 layers, hidden 4096, 32 heads, microbatch 2."""
    return build_gpt_like(
        "GPT-8B", n_blocks=40, hidden_dim=4096, n_heads=32, default_microbatch_size=2
    )


def gpt_15b() -> ModelSpec:
    """The 15B model: 40 layers, hidden 5120, 64 heads, microbatch 1."""
    return build_gpt_like(
        "GPT-15B", n_blocks=40, hidden_dim=5120, n_heads=64, default_microbatch_size=1
    )


def gpt_51b() -> ModelSpec:
    """The 51B model: 50 layers, hidden 9216, 80 heads, microbatch 1."""
    return build_gpt_like(
        "GPT-51B", n_blocks=50, hidden_dim=9216, n_heads=80, default_microbatch_size=1
    )


def vit_huge() -> ModelSpec:
    """ViT-Huge-class vision transformer (the intro's CV workloads [18])."""
    return build_vit_like(
        "ViT-Huge", n_blocks=32, hidden_dim=1280, n_heads=16, patch_size=14
    )


def gpt2_small(seq_len: int = 128) -> ModelSpec:
    """A GPT-2-small-shaped model for the convergence experiment (§4.6)."""
    return build_gpt_like(
        "GPT2-small",
        n_blocks=12,
        hidden_dim=768,
        n_heads=12,
        seq_len=seq_len,
        default_microbatch_size=4,
    )


_FACTORIES = {
    "VIT-H": vit_huge,
    "3B": gpt_3b,
    "8B": gpt_8b,
    "15B": gpt_15b,
    "51B": gpt_51b,
    "GPT2": gpt2_small,
}


def model_by_name(name: str) -> ModelSpec:
    """Look up a zoo model by short name (``"3B"``, ``"8B"``, ...)."""
    key = name.upper().removeprefix("GPT-").removeprefix("GPT_")
    try:
        return _FACTORIES[key]()
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(_FACTORIES)}"
        ) from None
