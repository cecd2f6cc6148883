"""Numeric gradient checks for the fused NN operations."""

import numpy as np
import pytest

from repro.autograd.ops import cross_entropy_logits, embedding, layer_norm
from repro.autograd.tensor import Tensor

from tests.autograd import per_op
from tests.autograd.test_tensor import numeric_grad
from tests.nn.composed_block import causal_mask_fill, gelu, softmax


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestGelu:
    def test_known_values(self):
        x = Tensor([0.0])
        assert gelu(x).data[0] == pytest.approx(0.0)
        x = Tensor([100.0])
        assert gelu(x).data[0] == pytest.approx(100.0, rel=1e-4)

    def test_numeric_grad(self, rng):
        x = Tensor(rng.normal(size=6).astype(np.float32), requires_grad=True)
        per_op.sum(gelu(x)).backward()
        ng = numeric_grad(lambda: float(per_op.sum(gelu(Tensor(x.data))).data), x)
        np.testing.assert_allclose(x.grad, ng, atol=2e-2)

    def test_matches_float64_formula(self):
        values = np.concatenate(
            [np.linspace(-8.0, 8.0, 4001), [-7.999, -3.0, -1.0, -1e-3, 0.0, 1e-3]]
        ).astype(np.float32)
        upstream = np.random.default_rng(3).normal(size=values.shape).astype(np.float32)
        x = Tensor(values, requires_grad=True)
        out = gelu(x)
        out.backward(upstream)

        v = values.astype(np.float64)
        c = np.sqrt(2.0 / np.pi)
        t = np.tanh(c * (v + 0.044715 * v**3))
        dt = (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * v**2)
        forward = 0.5 * v * (1.0 + t)
        backward = upstream * (0.5 * (1.0 + t) + 0.5 * v * dt)
        # 1 + tanh(u) -> 0 for negative x, and the derivative crosses zero
        # near x = -0.75: float32 loses digits there in absolute, not relative,
        # terms, so each side may also be off by ulps of its terms' magnitude.
        ulp = np.finfo(np.float32).eps
        forward_err = np.abs(out.data - forward)
        assert np.all(forward_err <= 1e-6 * np.abs(forward) + np.abs(v) * ulp)
        backward_err = np.abs(x.grad - backward)
        backward_tol = 2 * np.abs(upstream) * (1 + np.abs(v)) * ulp
        assert np.all(backward_err <= 1e-6 * np.abs(backward) + backward_tol)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(3, 5)))
        out = softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(3), atol=1e-6)

    def test_stability_with_large_logits(self):
        out = softmax(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_numeric_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
        w = rng.normal(size=(2, 4)).astype(np.float32)
        per_op.sum(softmax(x) * Tensor(w)).backward()
        ng = numeric_grad(
            lambda: float(per_op.sum(softmax(Tensor(x.data)) * Tensor(w)).data), x
        )
        np.testing.assert_allclose(x.grad, ng, atol=2e-2)


class TestCrossEntropy:
    def test_uniform_logits_log_vocab(self):
        logits = Tensor(np.zeros((2, 8)))
        loss = cross_entropy_logits(logits, np.array([0, 3]))
        assert loss.item() == pytest.approx(np.log(8), rel=1e-5)

    def test_perfect_prediction_near_zero(self):
        logits = np.full((1, 4), -100.0)
        logits[0, 2] = 100.0
        loss = cross_entropy_logits(Tensor(logits), np.array([2]))
        assert loss.item() == pytest.approx(0.0, abs=1e-5)

    def test_grad_sums_to_zero(self, rng):
        logits = Tensor(rng.normal(size=(3, 5)).astype(np.float32), requires_grad=True)
        cross_entropy_logits(logits, np.array([0, 1, 2])).backward()
        np.testing.assert_allclose(logits.grad.sum(axis=-1), np.zeros(3), atol=1e-6)

    def test_numeric_grad(self, rng):
        logits = Tensor(rng.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
        targets = np.array([1, 3])
        cross_entropy_logits(logits, targets).backward()
        ng = numeric_grad(
            lambda: float(cross_entropy_logits(Tensor(logits.data), targets).data),
            logits,
        )
        np.testing.assert_allclose(logits.grad, ng, atol=1e-2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_logits(Tensor(np.zeros((2, 4))), np.array([0, 1, 2]))

    @pytest.mark.parametrize("target", [-1, 5])
    def test_out_of_range_target_rejected(self, target):
        # -1 would otherwise score the last vocab entry; 5 would raise IndexError.
        with pytest.raises(ValueError, match=r"target %d .*\[0, 5\)" % target):
            cross_entropy_logits(Tensor(np.arange(5.0)[None]), np.array([target]))

    def test_3d_logits(self, rng):
        logits = Tensor(rng.normal(size=(2, 3, 5)).astype(np.float32), requires_grad=True)
        targets = rng.integers(0, 5, size=(2, 3))
        loss = cross_entropy_logits(logits, targets)
        loss.backward()
        assert logits.grad.shape == (2, 3, 5)


class TestStackedCrossEntropy:
    def test_one_mean_and_one_gradient_per_microbatch(self, rng):
        """Stacked logits give each microbatch's mean and the gradient of
        each slice's own loss, bit for bit."""
        logits = rng.normal(size=(4, 3, 5)).astype(np.float32)
        targets = rng.integers(0, 5, size=(4, 3))
        seed = np.array([0.5, 0.25], dtype=np.float32)
        stacked = Tensor(logits, requires_grad=True, microbatches=2)
        loss = cross_entropy_logits(stacked, targets)
        assert loss.shape == (2,) and loss.microbatches == 2
        loss.backward(seed)
        for mb, rows in enumerate((slice(0, 2), slice(2, 4))):
            part = Tensor(logits[rows], requires_grad=True)
            single = cross_entropy_logits(part, targets[rows])
            (single * seed[mb]).backward()
            assert single.data == loss.data[mb]
            np.testing.assert_array_equal(part.grad, stacked.grad[rows])


class TestLayerNorm:
    def test_normalises(self, rng):
        x = Tensor(rng.normal(size=(4, 8)) * 5 + 3)
        w = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        out = layer_norm(x, w, b)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-5)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(4), atol=1e-2)

    def test_numeric_grads_all_inputs(self, rng):
        x = Tensor(rng.normal(size=(2, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=6).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=6).astype(np.float32), requires_grad=True)
        mix = rng.normal(size=(2, 6)).astype(np.float32)
        per_op.sum(layer_norm(x, w, b) * Tensor(mix)).backward()

        def value():
            out = layer_norm(Tensor(x.data), Tensor(w.data), Tensor(b.data)) * Tensor(mix)
            return float(per_op.sum(out).data)

        np.testing.assert_allclose(x.grad, numeric_grad(value, x), atol=3e-2)
        np.testing.assert_allclose(w.grad, numeric_grad(value, w), atol=3e-2)
        np.testing.assert_allclose(b.grad, numeric_grad(value, b), atol=3e-2)


class TestEmbedding:
    def test_lookup(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = embedding(table, np.array([[0, 2]]))
        np.testing.assert_allclose(out.data, [[[0, 1, 2], [6, 7, 8]]])

    def test_repeated_indices_accumulate(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        per_op.sum(embedding(table, np.array([1, 1, 1]))).backward()
        np.testing.assert_allclose(table.grad, [[0, 0], [3, 3], [0, 0]])

    def test_stacked_microbatches_scatter_separately(self, rng):
        """Each microbatch scatters into its own table copy, and the copies
        add in order: the bits of one lookup per microbatch."""
        weights = rng.normal(size=(5, 3)).astype(np.float32)
        ids = rng.integers(0, 5, size=(6, 4))
        grad = rng.normal(size=(6, 4, 3)).astype(np.float32)
        stacked = Tensor(weights, requires_grad=True)
        out = embedding(stacked, ids, microbatches=3)
        assert out.microbatches == 3
        out.backward(grad)
        sliced = Tensor(weights, requires_grad=True)
        for rows in np.split(np.arange(6), 3):
            embedding(sliced, ids[rows]).backward(grad[rows])
        np.testing.assert_array_equal(stacked.grad, sliced.grad)

    @pytest.mark.parametrize("index", [-1, 4])
    def test_out_of_range_index_rejected(self, index):
        # -1 would otherwise read the last row; 4 would raise IndexError.
        table = Tensor(np.arange(12.0).reshape(4, 3))
        with pytest.raises(ValueError, match=r"index %d .*\[0, 4\)" % index):
            embedding(table, np.array([[0, index]]))


class TestCausalMask:
    def test_future_positions_masked(self):
        scores = Tensor(np.zeros((1, 3, 3)))
        out = causal_mask_fill(scores)
        assert out.data[0, 0, 1] == -1e9
        assert out.data[0, 2, 2] == 0.0

    def test_grad_zero_on_masked(self):
        scores = Tensor(np.zeros((2, 2)).astype(np.float32), requires_grad=True)
        per_op.sum(causal_mask_fill(scores)).backward()
        np.testing.assert_allclose(scores.grad, [[1, 0], [1, 1]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            causal_mask_fill(Tensor(np.zeros((2, 3))))
