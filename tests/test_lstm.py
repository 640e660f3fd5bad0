import numpy as np
import pytest

from lexipivot.numerics import LstmWeights, Tensor, lstm_step
from lexipivot.numerics.lstm import cell_backward, cell_forward, dc_through_h

from helpers import assert_array_grads_close


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
    h, c = lstm_step(np.zeros((1, 3)), (np.zeros((1, 4)), np.zeros((1, 4))), weights)
    np.testing.assert_allclose(h, 0.0)
    np.testing.assert_allclose(c, 0.0)


def test_forget_gate_saturation_preserves_cell():
    hidden = 4
    weights = make_weights(2, hidden, zero=True)
    bias = weights.bias.data
    bias[0:hidden] = -25.0       # input gate ~ 0
    bias[hidden:2 * hidden] = 25.0  # forget gate ~ 1
    c0 = np.array([[0.3, -0.7, 1.1, 0.05]])
    _, c1 = lstm_step(np.zeros((1, 2)), (np.zeros((1, hidden)), c0), weights)
    np.testing.assert_allclose(c1, c0, atol=1e-6)


def test_batched_matches_single():
    rng = np.random.default_rng(12)
    weights = make_weights(3, 4, rng)
    xs = rng.normal(size=(5, 3))
    h0 = rng.normal(size=(5, 4))
    c0 = rng.normal(size=(5, 4))
    h_b, c_b = lstm_step(xs, (h0, c0), weights)
    for i in range(5):
        one = slice(i, i + 1)
        h_i, c_i = lstm_step(xs[one], (h0[one], c0[one]), weights)
        np.testing.assert_allclose(h_b[one], h_i, atol=1e-12)
        np.testing.assert_allclose(c_b[one], c_i, atol=1e-12)


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
        h1, c1 = lstm_step(x, (h, c), weights)
        ref_h, ref_c = reference(x, h, c, *w)
        assert h1.shape == ref_h.shape and c1.shape == ref_c.shape
        np.testing.assert_allclose(h1, ref_h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c1, ref_c, rtol=0, atol=1e-12)


@pytest.mark.parametrize("output", ["h", "c", "both"])
def test_cell_backward_matches_finite_differences(output):
    """`cell_backward`, with `dc_through_h` and dL/dc_prev = dc * f as
    `caption_loss` chains them, against central differences of
    `cell_forward` in the gate pre-activations and the previous cell. With
    the loss on c' alone, dL/dh' is zero."""
    rng = np.random.default_rng(15)
    gates, c_prev = rng.normal(size=(2, 16)), rng.normal(size=(2, 4))
    w_h = rng.normal(size=(2, 4)) if output != "c" else np.zeros((2, 4))
    w_c = rng.normal(size=(2, 4)) if output != "h" else np.zeros((2, 4))

    def f():
        _, c, _, h = cell_forward(gates, c_prev)
        return (w_h * h).sum() + (w_c * c).sum()

    act, _, tanh_c, _ = cell_forward(gates, c_prev)
    dc = w_c + dc_through_h(w_h, act, tanh_c)
    dgates = cell_backward(w_h, dc, act, c_prev, tanh_c)
    assert_array_grads_close(f, [gates, c_prev], [dgates, dc * act[:, 4:8]], tol=1e-6)


def test_float32_stays_float32():
    rng = np.random.default_rng(16)
    weights = make_weights(3, 4, rng)
    for name in ("w_ih", "w_hh", "bias"):
        t = getattr(weights, name)
        t.data = t.data.astype(np.float32)
    x = rng.normal(size=(2, 3)).astype(np.float32)
    state = np.zeros((2, 4), np.float32), np.zeros((2, 4), np.float32)
    h1, c1 = lstm_step(x, state, weights)
    assert h1.dtype == np.float32 and c1.dtype == np.float32


def test_hand_computed_one_unit_step():
    """A one-unit cell with unit input weights and zero recurrence, by hand:
    every gate sees x, so c' = sigmoid(x) * c + sigmoid(x) * tanh(x) and
    h' = sigmoid(x) * tanh(c')."""
    weights = LstmWeights(w_ih=Tensor(np.ones((1, 4))), w_hh=Tensor(np.zeros((1, 4))),
                          bias=Tensor(np.zeros(4)))
    x, c0 = 0.5, -0.25
    sig = 1.0 / (1.0 + np.exp(-x))
    c1 = sig * c0 + sig * np.tanh(x)
    h, c = lstm_step(np.array([[x]]), (np.zeros((1, 1)), np.array([[c0]])), weights)
    np.testing.assert_allclose(c, [[c1]], rtol=0, atol=1e-15)
    np.testing.assert_allclose(h, [[sig * np.tanh(c1)]], rtol=0, atol=1e-15)


def test_returns_plain_arrays():
    """The step runs forward only: trainable weights give arrays, not tape
    nodes."""
    rng = np.random.default_rng(14)
    weights = make_weights(3, 4, rng)
    h1, c1 = lstm_step(rng.normal(size=(2, 3)), (np.zeros((2, 4)), np.zeros((2, 4))), weights)
    assert type(h1) is np.ndarray and type(c1) is np.ndarray
    assert all(getattr(weights, n).grad is None for n in ("w_ih", "w_hh", "bias"))
