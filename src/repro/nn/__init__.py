"""Transformer language model on the numpy autograd engine."""

from repro.nn.attention import CausalSelfAttention
from repro.nn.data import Batch, SyntheticCorpus
from repro.nn.layers import Embedding, LayerNorm, Linear, Module
from repro.nn.transformer import (
    EmbeddingLayer,
    GPTConfig,
    GPTModel,
    HeadLayer,
    TransformerBlock,
)

__all__ = [
    "Batch",
    "CausalSelfAttention",
    "Embedding",
    "EmbeddingLayer",
    "GPTConfig",
    "GPTModel",
    "HeadLayer",
    "LayerNorm",
    "Linear",
    "Module",
    "SyntheticCorpus",
    "TransformerBlock",
]
