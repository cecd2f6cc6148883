"""Tests for causal self-attention, run inside the fused transformer block.

:class:`CausalSelfAttention` holds the attention parameters; the block's one
fused node (:func:`repro.autograd.ops.transformer_block`) runs them.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.nn.attention import CausalSelfAttention
from repro.nn.transformer import GPTConfig, TransformerBlock


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def block(dim: int, n_heads: int, rng) -> TransformerBlock:
    return TransformerBlock(GPTConfig(dim=dim, n_heads=n_heads), rng=rng)


class TestCausalSelfAttention:
    def test_output_shape(self, rng):
        out = block(32, 4, rng)(Tensor(rng.normal(size=(2, 7, 32))))
        assert out.shape == (2, 7, 32)

    def test_causality(self, rng):
        """Changing a future token must not affect earlier outputs."""
        layer = block(16, 4, rng)
        x = rng.normal(size=(1, 6, 16)).astype(np.float32)
        base = layer(Tensor(x)).data.copy()
        perturbed = x.copy()
        perturbed[0, 4] += 10.0  # poke token 4
        out = layer(Tensor(perturbed)).data
        np.testing.assert_allclose(out[0, :4], base[0, :4], atol=1e-5)
        assert not np.allclose(out[0, 4], base[0, 4])

    def test_heads_must_divide_dim(self, rng):
        with pytest.raises(ValueError):
            CausalSelfAttention(30, 4, rng=rng)

    def test_gradients_flow_to_all_weights(self, rng):
        layer = block(16, 2, rng)
        x = Tensor(rng.normal(size=(1, 4, 16)).astype(np.float32), requires_grad=True)
        layer(x).backward(np.ones((1, 4, 16), dtype=np.float32))
        for param in layer.attn.parameters():
            assert param.grad is not None

    def test_single_token_sequence(self, rng):
        out = block(16, 2, rng)(Tensor(rng.normal(size=(1, 1, 16))))
        assert out.shape == (1, 1, 16)
