import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexipivot.errors import NumericError, ShapeError
from lexipivot.numerics import (
    Tensor,
    add,
    additive_attention,
    concat_cols,
    concat_rows,
    cross_entropy_rows,
    grad_enabled,
    gather_cols,
    matmul,
    no_grad,
    reshape,
    row_slice,
    tanh,
)

from helpers import assert_grads_close, max_rel_err, numeric_gradient, roundoff_atol


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[3.0], [4.0]]

    def test_hand_computed(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        w = rng.normal(size=(3, 2))  # fixed projection to a scalar

        def f():
            return _weighted_sum(matmul(a, b), w)

        assert_grads_close(f, [a, b], tol=1e-6)


def _weighted_sum(t, w):
    flat = reshape(t, (1, t.data.size))
    wcol = Tensor(np.asarray(w, dtype=np.float64).reshape(t.data.size, 1))
    return matmul(flat, wcol)


def _score_attention(region_part, b2, regions, s):
    """Fused attention whose scores are s * tanh(region_part) + b2
    (a one-unit scorer with zero hidden weights)."""
    b, k, d = regions.shape
    return additive_attention(Tensor(np.zeros((b, 1))), Tensor(regions), region_part,
                              Tensor(np.zeros((1 + d, 1))), Tensor([[s]]), b2)


def softmax(scores, shift=0.0):
    """Attention weights for scores [B,K] (or [K]) plus `shift`: region_part =
    artanh(scores / s) reproduces the scores to a few ulps of s."""
    x = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    b, k = x.shape
    s = 2.0 * np.max(np.abs(x), initial=0.0) + 1.0
    region_part = Tensor(np.arctanh(x / s).reshape(b * k, 1))
    return _score_attention(region_part, Tensor([float(shift)]),
                            np.zeros((b, k, 1)), s)[1].data


class TestSoftmax:
    """The softmax inside the fused attention op (see also test_attention)."""

    def test_uniform(self):
        np.testing.assert_allclose(softmax([7.3, 7.3, 7.3, 7.3]), [[0.25] * 4], atol=1e-12)

    def test_analytic(self):
        np.testing.assert_allclose(softmax(np.log([1.0, 3.0])), [[0.25, 0.75]], atol=1e-12)

    def test_shift_invariance(self):
        x = np.array([0.3, -1.2, 5.0, 2.2])
        np.testing.assert_allclose(softmax(x), softmax(x, shift=100.0), atol=1e-9)

    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            softmax([1.0, float("nan")])

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            softmax(np.zeros((1, 0)))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=512))
    @settings(max_examples=80, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, values):
        x = np.array(values)
        out = softmax(x)
        assert abs(out.sum() - 1.0) < 1e-9
        shifted = softmax(x, shift=100.0)
        assert np.max(np.abs(out - shifted)) < 1e-9

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        region_part = Tensor(rng.normal(size=(10, 1)), requires_grad=True)
        b2 = Tensor([0.3], requires_grad=True)
        regions = rng.normal(size=(2, 5, 3))
        w = rng.normal(size=(2, 3))

        def f():
            return _weighted_sum(_score_attention(region_part, b2, regions, 3.0)[0], w)

        f().backward()
        assert abs(b2.grad[0]) < 1e-12   # a shift shared by every score is invisible
        assert_grads_close(f, [region_part, b2], tol=1e-6)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy_rows(Tensor([[0.0, 0.0, 0.0, 0.0]]), np.array([2]))
        assert abs(loss.item() - math.log(4.0)) < 1e-12

    def test_confident_logit_limit(self):
        logits = np.zeros((1, 6))
        logits[0, 3] = 30.0
        assert cross_entropy_rows(Tensor(logits), np.array([3])).item() < 1e-4

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy_rows(Tensor([[0.0, 1.0]]), np.array([2]))

    def test_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        loss = cross_entropy_rows(logits, np.array([1, 4]))
        loss.backward()
        e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        probs[[0, 1], [1, 4]] -= 1.0
        np.testing.assert_allclose(logits.grad, probs, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(3, 7)), requires_grad=True)

        def f():
            return cross_entropy_rows(logits, np.array([4, 0, 6]))

        assert_grads_close(f, [logits], tol=1e-6)

    def test_mask_zeroes_rows(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        targets = np.array([0, 1, 2])
        mask = np.array([1.0, 0.0, 1.0])
        loss = cross_entropy_rows(logits, targets, mask)
        loss.backward()
        assert np.all(logits.grad[1] == 0.0)
        only = cross_entropy_rows(Tensor(logits.data[[0, 2]]), targets[[0, 2]])
        assert abs(loss.item() - only.item()) < 1e-12


def _composite(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    b = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    bias = Tensor(rng.normal(size=cols), requires_grad=True)
    m = Tensor(rng.normal(size=(cols, cols)), requires_grad=True)
    w = rng.normal(size=(2 * rows, 2 * cols))

    def f():
        left = tanh(add(a, bias))
        right = tanh(add(matmul(a, m), b))
        return _weighted_sum(concat_rows([concat_cols([left, right]),
                                          concat_cols([right, left])]), w)

    return f, [a, b, bias, m]


class TestElementwiseBackward:
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000))
    @example(2, 2, 231)  # a 1.3e-7 gradient whose central difference carries 4.3e-10 round-off
    @settings(max_examples=25, deadline=None)
    def test_composite_ops_match_finite_differences(self, rows, cols, seed):
        f, tensors = _composite(rows, cols, seed)
        assert_grads_close(f, tensors, tol=1e-5)

    def test_wrong_gradient_as_small_as_roundoff_case_fails(self):
        f, tensors = _composite(2, 2, 231)
        loss = f()
        loss.backward()
        atol = roundoff_atol(loss.item(), 1e-6)
        grads = [t.grad.copy() for t in tensors]
        i, j = min(((i, j) for i, g in enumerate(grads) for j in range(g.size)),
                   key=lambda ij: abs(grads[ij[0]].flat[ij[1]]))
        tiny = grads[i].flat[j]
        assert abs(tiny) < 1e-6
        numeric = numeric_gradient(f, tensors[i])
        assert max_rel_err(grads[i], numeric, atol) < 1e-5
        grads[i].flat[j] = -tiny  # wrong by twice its own size
        assert max_rel_err(grads[i], numeric, atol) > 1.0

    def test_slices_and_repeat(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        w = rng.normal(size=(6, 12))

        def f():
            top = row_slice(x, 0, 2)            # [2,6]
            rep = concat_rows([top, top, top])  # [6,6]
            return _weighted_sum(concat_cols([rep, rep]), w)

        assert_grads_close(f, [x], tol=1e-6)

    def test_gather_cols_accumulates_duplicates(self):
        w = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), requires_grad=True)
        out = gather_cols(w, np.array([1, 1, 3]))
        assert out.data.shape == (3, 3)
        np.testing.assert_allclose(out.data[0], w.data[:, 1])
        loss = _weighted_sum(out, np.ones((3, 3)))
        loss.backward()
        np.testing.assert_allclose(w.grad[:, 1], 2.0)
        np.testing.assert_allclose(w.grad[:, 3], 1.0)
        np.testing.assert_allclose(w.grad[:, 0], 0.0)

    def test_gather_cols_backward_matches_scatter_add(self):
        rng = np.random.default_rng(9)
        w = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
        idx = rng.integers(0, 7, size=12)
        g = rng.normal(size=(12, 4))
        loss = _weighted_sum(gather_cols(w, idx), g)
        loss.backward()
        expected = np.zeros((7, 4))
        np.add.at(expected, idx, g)
        np.testing.assert_allclose(w.grad, expected.T, rtol=0, atol=1e-12)

    def test_gather_cols_bounds(self):
        with pytest.raises(IndexError):
            gather_cols(Tensor(np.zeros((2, 3))), np.array([3]))


class TestTapeMechanics:
    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = tanh(x)
        assert y._backward is None and not y.requires_grad

    def test_no_grad_restores_grad_mode_after_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("inside no_grad")
        assert grad_enabled()
        assert tanh(Tensor([1.0], requires_grad=True)).requires_grad

    def test_reused_node_accumulates(self):
        x = Tensor([[2.0]], requires_grad=True)
        y = tanh(x)
        loss = add(y, y)
        reshape(loss, (1,))
        total = _weighted_sum(loss, np.ones((1, 1)))
        total.backward()
        expected = 2.0 * (1.0 - np.tanh(2.0) ** 2)
        np.testing.assert_allclose(x.grad, [[expected]], atol=1e-12)

    def test_first_gradients_do_not_share_buffers(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0, 4.0]], requires_grad=True)
        _weighted_sum(add(a, b), np.ones((2, 1))).backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.accumulate_grad(np.full((1, 2), 5.0))
        np.testing.assert_array_equal(a.grad, [[6.0, 6.0]])
        np.testing.assert_array_equal(b.grad, [[1.0, 1.0]])

    def test_leaf_used_twice_owns_its_gradient(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        c = Tensor([[0.5, 0.5]], requires_grad=True)
        both = add(a, a)
        _weighted_sum(add(both, c), np.ones((2, 1))).backward()
        np.testing.assert_array_equal(a.grad, [[2.0, 2.0]])
        assert not np.shares_memory(a.grad, both.grad)
        assert not np.shares_memory(a.grad, c.grad)
        a.accumulate_grad(np.ones((1, 2)))
        np.testing.assert_array_equal(both.grad, [[1.0, 1.0]])
        np.testing.assert_array_equal(c.grad, [[1.0, 1.0]])

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            y = Tensor(rng.normal(size=(4, 4)))
            loss = _weighted_sum(tanh(matmul(x, y)), rng.normal(size=(4, 4)))
            loss.backward()
            return loss.item(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_backward_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0], requires_grad=True).backward()
