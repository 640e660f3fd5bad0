import numpy as np
import pytest

from lexipivot.errors import ShapeError
from lexipivot.numerics import LstmWeights, Tensor, concat_cols, lstm_step, matmul, reshape

from helpers import assert_grads_close


def make_weights(d_in, hidden, rng=None, zero=False):
    if zero:
        w_ih = np.zeros((d_in, 4 * hidden))
        w_hh = np.zeros((hidden, 4 * hidden))
        bias = np.zeros(4 * hidden)
    else:
        w_ih = rng.normal(scale=0.5, size=(d_in, 4 * hidden))
        w_hh = rng.normal(scale=0.5, size=(hidden, 4 * hidden))
        bias = rng.normal(scale=0.5, size=4 * hidden)
    return LstmWeights(
        w_ih=Tensor(w_ih, requires_grad=True),
        w_hh=Tensor(w_hh, requires_grad=True),
        bias=Tensor(bias, requires_grad=True),
    )


def test_all_zero_fixed_point():
    weights = make_weights(3, 4, zero=True)
    h, c = lstm_step(Tensor(np.zeros((1, 3))),
                     (Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4)))), weights)
    np.testing.assert_allclose(h.data, 0.0)
    np.testing.assert_allclose(c.data, 0.0)


def test_forget_gate_saturation_preserves_cell():
    hidden = 4
    weights = make_weights(2, hidden, zero=True)
    bias = weights.bias.data
    bias[0:hidden] = -25.0       # input gate ~ 0
    bias[hidden:2 * hidden] = 25.0  # forget gate ~ 1
    c0 = np.array([[0.3, -0.7, 1.1, 0.05]])
    _, c1 = lstm_step(Tensor(np.zeros((1, 2))), (Tensor(np.zeros((1, hidden))), Tensor(c0)),
                      weights)
    np.testing.assert_allclose(c1.data, c0, atol=1e-6)


def test_shape_mismatch():
    weights = make_weights(3, 4, zero=True)
    with pytest.raises(ShapeError):
        lstm_step(Tensor(np.zeros((1, 5))),
                  (Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4)))), weights)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    d_in, hidden = 3, 4
    weights = make_weights(d_in, hidden, rng)
    x = Tensor(rng.normal(size=(1, d_in)), requires_grad=True)
    h0 = Tensor(rng.normal(size=(1, hidden)), requires_grad=True)
    c0 = Tensor(rng.normal(size=(1, hidden)), requires_grad=True)
    w_out = Tensor(rng.normal(size=(2 * hidden, 1)))

    def f():
        h1, c1 = lstm_step(x, (h0, c0), weights)
        stacked = matmul(h1, Tensor(np.eye(hidden)))
        return matmul(concat_cols([stacked, c1]), w_out)

    assert_grads_close(
        f, [x, h0, c0, weights.w_ih, weights.w_hh, weights.bias], tol=1e-4, eps=1e-5)


def test_batched_matches_single():
    rng = np.random.default_rng(12)
    weights = make_weights(3, 4, rng)
    xs = rng.normal(size=(5, 3))
    h0 = rng.normal(size=(5, 4))
    c0 = rng.normal(size=(5, 4))
    h_b, c_b = lstm_step(Tensor(xs), (Tensor(h0), Tensor(c0)), weights)
    for i in range(5):
        one = slice(i, i + 1)
        h_i, c_i = lstm_step(Tensor(xs[one]), (Tensor(h0[one]), Tensor(c0[one])), weights)
        np.testing.assert_allclose(h_b.data[one], h_i.data, atol=1e-12)
        np.testing.assert_allclose(c_b.data[one], c_i.data, atol=1e-12)


def reference(x, h, c, w_ih, w_hh, bias):
    """The composite cell the fused op replaced, in plain NumPy: piecewise
    sigmoid over column slices, then c' = f*c + i*g and h' = o*tanh(c')."""
    def sigmoid(z):
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    hs = w_hh.shape[0]
    gates = x @ w_ih + h @ w_hh + bias
    i, f = sigmoid(gates[..., :hs]), sigmoid(gates[..., hs:2 * hs])
    g, o = np.tanh(gates[..., 2 * hs:3 * hs]), sigmoid(gates[..., 3 * hs:])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def test_matches_composite_reference():
    rng = np.random.default_rng(13)
    weights = make_weights(3, 4, rng)
    w = (weights.w_ih.data, weights.w_hh.data, weights.bias.data)
    for shape in ((1,), (6,)):
        x = rng.normal(scale=3.0, size=shape + (3,))
        h, c = rng.normal(size=shape + (4,)), rng.normal(size=shape + (4,))
        h1, c1 = lstm_step(Tensor(x), (Tensor(h), Tensor(c)), weights)
        ref_h, ref_c = reference(x, h, c, *w)
        assert h1.data.shape == ref_h.shape and c1.data.shape == ref_c.shape
        np.testing.assert_allclose(h1.data, ref_h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c1.data, ref_c, rtol=0, atol=1e-12)


def test_two_tape_nodes():
    rng = np.random.default_rng(14)
    weights = make_weights(3, 4, rng)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    h1, c1 = lstm_step(x, (Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4)))), weights)
    assert h1._parents == (c1,)
    assert all(p._backward is None for p in c1._parents)


@pytest.mark.parametrize("output", ["h", "c"])
def test_gradients_through_one_output(output):
    rng = np.random.default_rng(15)
    weights = make_weights(3, 4, rng)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    h0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    c0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    w_out = Tensor(rng.normal(size=(8, 1)))

    def f():
        h1, c1 = lstm_step(x, (h0, c0), weights)
        return matmul(reshape(h1 if output == "h" else c1, (1, 8)), w_out)

    assert_grads_close(
        f, [x, h0, c0, weights.w_ih, weights.w_hh, weights.bias], tol=1e-4, eps=1e-5)


def test_float32_stays_float32():
    rng = np.random.default_rng(16)
    weights = make_weights(3, 4, rng)
    for name in ("w_ih", "w_hh", "bias"):
        t = getattr(weights, name)
        t.data = t.data.astype(np.float32)
    x = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
    state = (Tensor(np.zeros((2, 4), np.float32)), Tensor(np.zeros((2, 4), np.float32)))
    h1, c1 = lstm_step(x, state, weights)
    assert h1.data.dtype == np.float32 and c1.data.dtype == np.float32
    matmul(reshape(h1, (1, 8)), Tensor(np.ones((8, 1), np.float32))).backward()
    assert x.grad.dtype == np.float32 and weights.w_ih.grad.dtype == np.float32
