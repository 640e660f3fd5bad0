"""The finite-difference oracle in helpers.py checks itself: it must pass
correct gradients and catch wrong ones and non-deterministic closures.
Each closure is one hand-made tape node with a hand-written backward."""

import numpy as np
import pytest

from lexipivot.numerics import Tensor
from lexipivot.numerics.tensor import _make

from helpers import assert_grads_close, max_rel_err, numeric_gradient, roundoff_atol


def scaled(w, x):
    """w [1,1] times the constant x, as one node."""
    return _make(w.data * x, (w,), lambda g: w.accumulate_grad(g * x))


def test_linear_model_exact():
    w = Tensor(np.array([[0.7]]), requires_grad=True)

    def f():
        return scaled(w, 2.0)

    f().backward()
    assert max_rel_err(w.grad, numeric_gradient(f, w.data, eps=1e-5)) < 1e-8
    assert_grads_close(f, [w], tol=1e-6, eps=1e-5)


def test_nonlinear_closure_passes():
    rng = np.random.default_rng(5)
    w1 = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    x = rng.normal(size=(1, 3))

    def f():  # tanh(x @ w1) @ w2
        hidden = np.tanh(x @ w1.data)

        def backward(g):
            w2.accumulate_grad(hidden.T @ g)
            w1.accumulate_grad(x.T @ ((g @ w2.data.T) * (1.0 - hidden * hidden)))

        return _make(hidden @ w2.data, (w1, w2), backward)

    assert_grads_close(f, [w1, w2], tol=1e-4, eps=1e-5)


def test_corrupted_backward_detected():
    w = Tensor(np.array([[0.5]]), requires_grad=True)

    def f():
        return _make(w.data * w.data, (w,),
                     lambda g: w.accumulate_grad(-2.0 * w.data * g))  # wrong sign on purpose

    with pytest.raises(AssertionError, match="gradient mismatch"):
        assert_grads_close(f, [w], tol=1e-4, eps=1e-5)


def test_nondeterministic_closure_rejected():
    w = Tensor(np.array([[1.0]]), requires_grad=True)
    state = {"calls": 0}

    def f():
        state["calls"] += 1
        return scaled(w, float(state["calls"]))

    with pytest.raises(AssertionError, match="not deterministic"):
        assert_grads_close(f, [w])


def test_report_summary_mentions_tolerance():
    w = Tensor(np.array([[0.3]]), requires_grad=True)

    def f():
        return _make(w.data * 3.0, (w,), lambda g: w.accumulate_grad(2.0 * g))

    with pytest.raises(AssertionError, match=r"tol 1\.0e-04"):
        assert_grads_close(f, [w], tol=1e-4)


def composite(rows, cols, seed):
    """sum(w * [[L, R], [R, L]]) with L = tanh(a + bias) and
    R = tanh(a @ m + b), as one node: (closure, its leaves)."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    b = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    bias = Tensor(rng.normal(size=cols), requires_grad=True)
    m = Tensor(rng.normal(size=(cols, cols)), requires_grad=True)
    w = rng.normal(size=(2 * rows, 2 * cols))
    w_left = w[:rows, :cols] + w[rows:, cols:]   # the weights on L
    w_right = w[:rows, cols:] + w[rows:, :cols]  # the weights on R

    def f():
        left = np.tanh(a.data + bias.data)
        right = np.tanh(a.data @ m.data + b.data)

        def backward(g):
            d_left = g * w_left * (1.0 - left * left)
            d_right = g * w_right * (1.0 - right * right)
            a.accumulate_grad(d_left + d_right @ m.data.T)
            b.accumulate_grad(d_right)
            bias.accumulate_grad(d_left.sum(axis=0))
            m.accumulate_grad(a.data.T @ d_right)

        value = (w_left * left).sum() + (w_right * right).sum()
        return _make(np.array(value), (a, b, bias, m), backward)

    return f, [a, b, bias, m]


def test_wrong_gradient_as_small_as_roundoff_case_fails():
    """At seed 231 one gradient is 1.3e-7, close to the round-off of its
    central difference: the forgiven round-off must not hide a gradient
    wrong by twice its own size."""
    f, tensors = composite(2, 2, 231)
    loss = f()
    loss.backward()
    atol = roundoff_atol(loss.item(), 1e-6)
    grads = [t.grad.copy() for t in tensors]
    i, j = min(((i, j) for i, g in enumerate(grads) for j in range(g.size)),
               key=lambda ij: abs(grads[ij[0]].flat[ij[1]]))
    tiny = grads[i].flat[j]
    assert abs(tiny) < 1e-6
    numeric = numeric_gradient(f, tensors[i].data)
    assert max_rel_err(grads[i], numeric, atol) < 1e-5
    grads[i].flat[j] = -tiny  # wrong by twice its own size
    assert max_rel_err(grads[i], numeric, atol) > 1.0
