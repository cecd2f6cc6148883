"""Tests for the Adam optimizer."""

import numpy as np
import pytest

from repro.autograd.optim import Adam
from repro.autograd.tensor import Tensor


def make_param(value):
    return Tensor(np.array(value, dtype=np.float32), requires_grad=True)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # With bias correction, |step 1| == lr regardless of grad scale.
        p = make_param([0.0])
        p.grad = np.array([123.0], dtype=np.float32)
        Adam([p], lr=0.01).step()
        np.testing.assert_allclose(np.abs(p.data), [0.01], rtol=1e-4)

    def test_descends_quadratic(self):
        p = make_param([5.0])
        opt = Adam([p], lr=0.5)
        for _ in range(200):
            opt.zero_grad()
            p.grad = 2 * p.data  # d/dp p^2
            opt.step()
        assert abs(float(p.data[0])) < 0.1

    def test_skips_params_without_grad(self):
        p = make_param([1.0])
        Adam([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_zero_grad(self):
        p = make_param([1.0])
        p.grad = np.array([1.0], dtype=np.float32)
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_no_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([make_param([1.0])], lr=0.0)
