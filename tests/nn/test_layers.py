"""Tests for the NN module system and basic layers."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.nn.layers import Embedding, LayerNorm, Linear, Module

from tests.autograd import per_op


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestModule:
    def test_parameter_discovery_recursive(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(4, 4, rng=rng)
                self.blocks = [Linear(4, 4, rng=rng), Linear(4, 4, rng=rng)]

        net = Net()
        params = list(net.parameters())
        assert len(params) == 6  # 3 linears x (weight, bias)

    def test_parameters_deduplicated(self, rng):
        class Tied(Module):
            def __init__(self):
                super().__init__()
                self.w = Tensor(np.ones(3), requires_grad=True)
                self.alias = self.w

        assert len(list(Tied().parameters())) == 1

    def test_n_parameters(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert sum(p.data.size for p in layer.parameters()) == 4 * 3 + 3


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(8, 3, rng=rng)
        out = layer(Tensor(np.ones((2, 5, 8))))
        assert out.shape == (2, 5, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng=rng, bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_gradients_reach_weights(self, rng):
        layer = Linear(4, 2, rng=rng)
        per_op.sum(layer(Tensor(np.ones((3, 4))))).backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, [3.0, 3.0])


class TestLayerNorm:
    def test_output_normalised(self, rng):
        layer = LayerNorm(16)
        x = Tensor(rng.normal(size=(4, 16)) * 10)
        out = layer(x)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-5)

    def test_two_parameters(self):
        assert len(list(LayerNorm(8).parameters())) == 2


class TestEmbedding:
    def test_lookup_shape(self, rng):
        table = Embedding(100, 16, rng=rng)
        out = table(np.zeros((2, 5), dtype=np.int64))
        assert out.shape == (2, 5, 16)

    def test_init_std(self, rng):
        table = Embedding(10_000, 64, rng=rng)
        assert table.weight.data.std() == pytest.approx(0.02, rel=0.1)
