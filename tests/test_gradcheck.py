"""The finite-difference oracle in helpers.py checks itself: it must pass
correct gradients and catch wrong ones and non-deterministic closures."""

import numpy as np
import pytest

from lexipivot.numerics import Tensor, matmul, reshape, tanh
from lexipivot.numerics.tensor import _make

from helpers import assert_grads_close, max_rel_err, numeric_gradient


def test_linear_model_exact():
    w = Tensor(np.array([[0.7]]), requires_grad=True)

    def f():
        return matmul(w, Tensor(np.array([[2.0]])))

    f().backward()
    assert max_rel_err(w.grad, numeric_gradient(f, w, eps=1e-5)) < 1e-8
    assert_grads_close(f, [w], tol=1e-6, eps=1e-5)


def test_nonlinear_closure_passes():
    rng = np.random.default_rng(5)
    w1 = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    x = rng.normal(size=(1, 3))

    def f():
        return matmul(tanh(matmul(Tensor(x), w1)), w2)

    assert_grads_close(f, [w1, w2], tol=1e-4, eps=1e-5)


def test_corrupted_backward_detected():
    w = Tensor(np.array([[0.5]]), requires_grad=True)

    def sign_flipped_square(w):
        data = w.data * w.data

        def backward(g):
            w.accumulate_grad(-2.0 * w.data * g)  # wrong sign on purpose

        return _make(data, (w,), backward)

    def f():
        return reshape(sign_flipped_square(w), (1, 1))

    with pytest.raises(AssertionError, match="gradient mismatch"):
        assert_grads_close(f, [w], tol=1e-4, eps=1e-5)


def test_nondeterministic_closure_rejected():
    w = Tensor(np.array([[1.0]]), requires_grad=True)
    state = {"calls": 0}

    def f():
        state["calls"] += 1
        return matmul(w, Tensor(np.array([[float(state["calls"])]])))

    with pytest.raises(AssertionError, match="not deterministic"):
        assert_grads_close(f, [w])


def test_report_summary_mentions_tolerance():
    w = Tensor(np.array([[0.3]]), requires_grad=True)

    def f():
        return reshape(_make(w.data * 3.0, (w,),
                             lambda g: w.accumulate_grad(2.0 * g)), (1, 1))

    with pytest.raises(AssertionError, match=r"tol 1\.0e-04"):
        assert_grads_close(f, [w], tol=1e-4)
