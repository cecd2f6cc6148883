"""Tests for the autograd tensor core and the per-op oracle graph built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd.tensor import Tensor

from tests.autograd import per_op


def numeric_grad(f, x, eps=1e-3):
    """Central-difference gradient of scalar f w.r.t. tensor x's data."""
    grad = np.zeros_like(x.data)
    it = np.nditer(x.data, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x.data[idx]
        x.data[idx] = orig + eps
        hi = f()
        x.data[idx] = orig - eps
        lo = f()
        x.data[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


class TestArithmetic:
    def test_add_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        (x + y).backward(np.ones(2))
        np.testing.assert_allclose(x.grad, [1, 1])
        np.testing.assert_allclose(y.grad, [1, 1])

    def test_mul_backward(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        y = Tensor([5.0, 7.0], requires_grad=True)
        (x * y).backward(np.ones(2))
        np.testing.assert_allclose(x.grad, [5, 7])
        np.testing.assert_allclose(y.grad, [2, 3])

    def test_broadcast_add_unbroadcasts_grad(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (x + b).backward(np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, [2, 2, 2])

    def test_scalar_operations(self):
        x = Tensor([2.0], requires_grad=True)
        y = per_op.sub(3 * x + 1, per_op.div(x, 2))
        y.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [2.5])

    def test_pow_backward(self):
        x = Tensor([3.0], requires_grad=True)
        per_op.pow(x, 2).backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_div_backward(self):
        x = Tensor([4.0], requires_grad=True)
        per_op.div(1.0, x).backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [-1 / 16])

    def test_matmul_backward_numeric(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        per_op.sum(per_op.matmul(x, w)).backward()
        ng = numeric_grad(
            lambda: float(per_op.sum(per_op.matmul(Tensor(x.data), Tensor(w.data))).data), x
        )
        np.testing.assert_allclose(x.grad, ng, atol=1e-2)

    def test_batched_matmul(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        out = per_op.matmul(x, w)
        assert out.shape == (2, 3, 5)
        per_op.sum(out).backward()
        assert x.grad.shape == x.shape
        assert w.grad.shape == w.shape


class TestShapes:
    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        per_op.sum(per_op.reshape(x, 2, 3)).backward()
        np.testing.assert_allclose(x.grad, np.ones(6))

    def test_transpose_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = per_op.transpose(x, 1, 0)
        assert y.shape == (3, 2)
        per_op.sum(y * Tensor(np.arange(6.0).reshape(3, 2))).backward()
        assert x.grad.shape == (2, 3)

    def test_default_transpose_reverses(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert per_op.transpose(x).shape == (4, 3, 2)

    def test_getitem_grad_scatter(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        per_op.sum(per_op.getitem(x, np.array([1, 1, 3]))).backward()
        np.testing.assert_allclose(x.grad, [0, 2, 0, 1, 0])

    def test_slice_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        per_op.sum(per_op.getitem(x, 0)).backward()
        np.testing.assert_allclose(x.grad, [[1, 1, 1], [0, 0, 0]])

    @pytest.mark.parametrize(
        "index",
        [
            1,
            -1,
            np.int64(2),
            slice(1, None),
            slice(None, None, -2),
            None,
            Ellipsis,
            (0, slice(1, 3)),
            (Ellipsis, 1),
            (None, slice(None), -1, None),
            (slice(None), np.int32(0), slice(2, 4)),
        ],
    )
    def test_basic_index_grad_matches_add_at(self, index):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, 4, 5)).astype(np.float32), requires_grad=True)
        out = per_op.getitem(x, index)
        upstream = rng.normal(size=out.shape).astype(np.float32)
        out.backward(upstream)
        expected = np.zeros_like(x.data)
        np.add.at(expected, index, upstream)
        assert x.grad.dtype == expected.dtype
        assert np.array_equal(x.grad, expected)

    def test_advanced_index_with_duplicates_accumulates(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        per_op.getitem(x, (np.array([0, 2, 0]), slice(None))).backward(np.ones((3, 2)))
        np.testing.assert_allclose(x.grad, [[2, 2], [0, 0], [1, 1]])

    def test_boolean_mask_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        mask = np.array([[True, False, True], [False, True, False]])
        per_op.getitem(x, mask).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x.grad, [[1, 0, 2], [0, 3, 0]])


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = per_op.sum(x, axis=1, keepdims=True)
        assert y.shape == (2, 1)
        per_op.sum(y).backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_sum_negative_axis(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        per_op.sum(per_op.sum(x, axis=-1)).backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_scales_grad(self):
        x = Tensor(np.ones(4), requires_grad=True)
        per_op.mean(x).backward()
        np.testing.assert_allclose(x.grad, np.full(4, 0.25))

    def test_exp_log_tanh_numeric(self):
        rng = np.random.default_rng(2)
        for op in (per_op.exp, per_op.log, per_op.tanh):
            data = np.abs(rng.normal(size=4)) + 0.5
            x = Tensor(data, requires_grad=True)
            per_op.sum(op(x)).backward()
            ng = numeric_grad(lambda op=op, x=x: float(per_op.sum(op(Tensor(x.data))).data), x)
            np.testing.assert_allclose(x.grad, ng, atol=1e-2)


class TestAutogradMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2 + x * 3
        y.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_backward_needs_scalar_or_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward(np.array([1.0]))
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_single_traversal(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3
        b = a + a  # a used twice
        b.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_float32_storage(self):
        assert Tensor([1.0]).data.dtype == np.float32

    def test_seed_with_extra_dims_rejected(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ValueError, match=r"seed shape \(5, 2, 3\)"):
            (x * 2).backward(np.ones((5, 2, 3)))
        assert x.grad is None

    def test_seed_of_broadcastable_shape_rejected(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ValueError, match=r"seed shape \(3,\)"):
            x.backward(np.ones(3))
        assert x.grad is None


class TestStackedMicrobatches:
    @pytest.mark.parametrize(("m", "b"), [(8, 1), (4, 2), (2, 4), (3, 5)])
    @pytest.mark.parametrize("shape", [(6,), (4, 6), (1, 6)])
    def test_reduction_matches_in_order_slices(self, m, b, shape):
        """A stacked gradient reduces within each microbatch, then adds the
        microbatches in order: the bits of one ``_accumulate`` per slice."""
        rng = np.random.default_rng(m * 10 + b)
        grad = rng.normal(size=(m * b, 4, 6)).astype(np.float32)
        stacked = Tensor(np.zeros(shape), requires_grad=True)
        sliced = Tensor(np.zeros(shape), requires_grad=True)
        stacked._accumulate(grad, m)
        for part in np.split(grad, m):
            sliced._accumulate(part)
        assert stacked.grad.shape == shape
        np.testing.assert_array_equal(stacked.grad, sliced.grad)

    def test_same_shape_gradient_passes_through(self):
        x = Tensor(np.zeros((4, 3)), requires_grad=True, microbatches=2)
        grad = np.arange(12, dtype=np.float32).reshape(4, 3)
        x._accumulate(grad, 2)
        np.testing.assert_array_equal(x.grad, grad)

    def test_arithmetic_carries_the_count(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True, microbatches=2)
        b = Tensor(np.ones(3), requires_grad=True)
        out = x * 2 + b
        assert out.microbatches == 2
        out.backward(np.ones((4, 3)))
        np.testing.assert_array_equal(b.grad, [4, 4, 4])


@settings(max_examples=20, deadline=None)
@given(
    data=hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=1, max_dims=2, max_side=4),
        elements=st.floats(min_value=-3, max_value=3, width=32),
    )
)
def test_sum_grad_is_ones(data):
    """Property: d(sum(x))/dx == 1 for any shape."""
    x = Tensor(data, requires_grad=True)
    per_op.sum(x).backward()
    np.testing.assert_allclose(x.grad, np.ones_like(data))
