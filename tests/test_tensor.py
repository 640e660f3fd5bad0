import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexipivot.errors import NumericError, ShapeError
from lexipivot.numerics import (
    Tensor,
    add,
    col_slice,
    concat_cols,
    cross_entropy_rows,
    grad_enabled,
    gather_cols,
    matmul,
    mul,
    no_grad,
    region_weighted_sum,
    repeat_rows,
    reshape,
    row_slice,
    sigmoid,
    softmax,
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


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor([7.3, 7.3, 7.3, 7.3]))
        np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-12)

    def test_analytic(self):
        out = softmax(Tensor(np.log([1.0, 3.0])))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        x = np.array([0.3, -1.2, 5.0, 2.2])
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            softmax(Tensor([1.0, float("nan")]))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            softmax(Tensor(np.zeros(0)))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=512))
    @settings(max_examples=80, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, values):
        x = np.array(values)
        out = softmax(Tensor(x)).data
        assert abs(out.sum() - 1.0) < 1e-9
        shifted = softmax(Tensor(x + 100.0)).data
        assert np.max(np.abs(out - shifted)) < 1e-9

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        w = rng.normal(size=(2, 5))

        def f():
            return _weighted_sum(softmax(x), w)

        assert_grads_close(f, [x], tol=1e-6)


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
        probs = softmax(Tensor(logits.data)).data
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
    w = rng.normal(size=(rows, 2 * cols))

    def f():
        left = tanh(add(mul(a, b), bias))
        right = sigmoid(add(a, b))
        return _weighted_sum(concat_cols([left, right]), w)

    return f, [a, b, bias]


class TestElementwiseBackward:
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000))
    @example(2, 1, 867)  # a 9.5e-7 gradient whose central difference carries 1.5e-10 round-off
    @settings(max_examples=25, deadline=None)
    def test_composite_ops_match_finite_differences(self, rows, cols, seed):
        f, tensors = _composite(rows, cols, seed)
        assert_grads_close(f, tensors, tol=1e-5)

    def test_wrong_gradient_as_small_as_roundoff_case_fails(self):
        f, tensors = _composite(2, 1, 867)
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
        w = rng.normal(size=(6, 2))

        def f():
            top = row_slice(x, 0, 2)          # [2,6]
            mid = col_slice(top, 1, 3)        # [2,2]
            rep = repeat_rows(mid, 3)         # [6,2]
            return _weighted_sum(rep, w)

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

    def test_gather_cols_bounds(self):
        with pytest.raises(IndexError):
            gather_cols(Tensor(np.zeros((2, 3))), np.array([3]))

    def test_region_weighted_sum_backward(self):
        rng = np.random.default_rng(8)
        alpha = Tensor(rng.uniform(size=(2, 3)), requires_grad=True)
        regions = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = rng.normal(size=(2, 4))

        def f():
            return _weighted_sum(region_weighted_sum(alpha, regions), w)

        assert_grads_close(f, [alpha, regions], tol=1e-6)

    def test_region_weighted_sum_shape_error(self):
        with pytest.raises(ShapeError):
            region_weighted_sum(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4, 5))))


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
