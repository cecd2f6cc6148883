"""GPT-style transformer language model.

The model is deliberately structured as an ordered list of *pipeline-able
layers* (embedding, blocks, final norm + head) so the training package can
partition it into stages exactly like the planner partitions
:class:`~repro.models.spec.ModelSpec` layers.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.autograd.ops import transformer_block
from repro.autograd.tensor import Tensor
from repro.nn.attention import CausalSelfAttention
from repro.nn.layers import Embedding, LayerNorm, Linear, Module

__all__ = ["GPTConfig", "TransformerBlock", "EmbeddingLayer", "HeadLayer", "GPTModel"]

#: GPT-2's MLP expansion: the hidden layer is four times the model width.
_MLP_RATIO = 4


@dataclasses.dataclass(frozen=True)
class GPTConfig:
    """Shape of a GPT model.

    Attributes:
        vocab_size: Vocabulary size.
        seq_len: Maximum sequence length (positions table size).
        dim: Hidden dimension.
        n_heads: Attention heads.
        n_blocks: Transformer blocks.
    """

    vocab_size: int = 256
    seq_len: int = 64
    dim: int = 64
    n_heads: int = 4
    n_blocks: int = 2


class EmbeddingLayer(Module):
    """Token + position embedding; the pipeline's first layer."""

    def __init__(self, config: GPTConfig, *, rng: np.random.Generator) -> None:
        super().__init__()
        self.tokens = Embedding(config.vocab_size, config.dim, rng=rng)
        self.positions = Embedding(config.seq_len, config.dim, rng=rng)

    def forward(self, token_ids: np.ndarray, microbatches: int = 1) -> Tensor:
        """Embed ``(batch, seq)`` ids that stack ``microbatches`` microbatches."""
        _, seq = token_ids.shape
        return self.tokens(token_ids, microbatches) + self.positions(np.arange(seq))


class TransformerBlock(Module):
    """Pre-norm attention + MLP block, run as one fused graph node."""

    def __init__(self, config: GPTConfig, *, rng: np.random.Generator) -> None:
        super().__init__()
        self.ln1 = LayerNorm(config.dim)
        self.attn = CausalSelfAttention(config.dim, config.n_heads, rng=rng)
        self.ln2 = LayerNorm(config.dim)
        self.fc_in = Linear(config.dim, _MLP_RATIO * config.dim, rng=rng)
        self.fc_out = Linear(_MLP_RATIO * config.dim, config.dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        attn = self.attn
        return transformer_block(
            x,
            (self.ln1.weight, self.ln1.bias, self.ln1.eps),
            (attn.qkv.weight, attn.qkv.bias),
            (attn.proj.weight, attn.proj.bias),
            (self.ln2.weight, self.ln2.bias, self.ln2.eps),
            (self.fc_in.weight, self.fc_in.bias),
            (self.fc_out.weight, self.fc_out.bias),
            n_heads=attn.n_heads,
        )


class HeadLayer(Module):
    """Final norm + LM projection; the pipeline's last layer."""

    def __init__(self, config: GPTConfig, *, rng: np.random.Generator) -> None:
        super().__init__()
        self.norm = LayerNorm(config.dim)
        self.proj = Linear(config.dim, config.vocab_size, rng=rng, bias=False)

    def forward(self, x: Tensor) -> Tensor:
        return self.proj(self.norm(x))


class GPTModel(Module):
    """The full language model as an ordered layer list.

    It has no whole-model forward: the trainers run its layers stage by
    stage, with the loss on the last stage's output.
    """

    def __init__(self, config: GPTConfig, *, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = config
        self.pipeline_layers: list[Module] = [
            EmbeddingLayer(config, rng=rng),
            *[TransformerBlock(config, rng=rng) for _ in range(config.n_blocks)],
            HeadLayer(config, rng=rng),
        ]

    @property
    def n_pipeline_layers(self) -> int:
        return len(self.pipeline_layers)
