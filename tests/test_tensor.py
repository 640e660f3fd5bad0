"""The tape (`Tensor`, `_make`, `backward`, `no_grad`) on hand-made nodes,
and the `cross_entropy_rows` loss node."""

import math

import numpy as np
import pytest

from lexipivot.errors import ShapeError
from lexipivot.numerics import Tensor, as_tensor, cross_entropy_rows, grad_enabled, no_grad
from lexipivot.numerics.tensor import _make

from helpers import assert_grads_close, node_sum


def tanh_node(x):
    out = np.tanh(x.data)
    return _make(out, (x,), lambda g: x.accumulate_grad(g * (1.0 - out * out), fresh=True))


def weighted_sum(t, w):
    """sum(w * t) as one scalar node."""
    w = np.asarray(w, dtype=np.float64).reshape(t.shape)
    return _make(np.array((t.data * w).sum()), (t,), lambda g: t.accumulate_grad(g * w))


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

    def test_rejects_logits_that_are_not_rows(self):
        with pytest.raises(ShapeError, match=r"\[B,V\] logits"):
            cross_entropy_rows(Tensor([0.0, 1.0]), np.array([1]))

    def test_rejects_one_target_per_other_batch(self):
        with pytest.raises(ShapeError, match="does not match batch 2"):
            cross_entropy_rows(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))

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


class TestTapeMechanics:
    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = tanh_node(x)
        assert y._backward is None and not y.requires_grad

    def test_no_grad_restores_grad_mode_after_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("inside no_grad")
        assert grad_enabled()
        assert tanh_node(Tensor([1.0], requires_grad=True)).requires_grad

    def test_reused_node_accumulates(self):
        x = Tensor([[2.0]], requires_grad=True)
        y = tanh_node(x)
        weighted_sum(node_sum(y, y), np.ones((1, 1))).backward()
        expected = 2.0 * (1.0 - np.tanh(2.0) ** 2)
        np.testing.assert_allclose(x.grad, [[expected]], atol=1e-12)

    def test_first_gradients_do_not_share_buffers(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0, 4.0]], requires_grad=True)
        weighted_sum(node_sum(a, b), np.ones(2)).backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.accumulate_grad(np.full((1, 2), 5.0))
        np.testing.assert_array_equal(a.grad, [[6.0, 6.0]])
        np.testing.assert_array_equal(b.grad, [[1.0, 1.0]])

    def test_leaf_used_twice_owns_its_gradient(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        c = Tensor([[0.5, 0.5]], requires_grad=True)
        both = node_sum(a, a)
        weighted_sum(node_sum(both, c), np.ones(2)).backward()
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
            loss = weighted_sum(tanh_node(node_sum(x, x)), rng.normal(size=(4, 4)))
            loss.backward()
            return loss.item(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_backward_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0], requires_grad=True).backward()


    def test_node_of_constants_is_not_recorded(self):
        y = tanh_node(Tensor([1.0, 2.0]))
        assert not y.requires_grad and y._parents == () and y._backward is None

    def test_deep_chain_backward_is_iterative(self):
        """A chain far deeper than Python's recursion limit replays in full."""
        x = Tensor([[0.1]], requires_grad=True)
        y, depth, expected = x, 5000, 1.0
        for _ in range(depth):
            expected *= 1.0 - np.tanh(y.data[0, 0]) ** 2
            y = tanh_node(y)
        weighted_sum(y, np.ones((1, 1))).backward()
        np.testing.assert_allclose(x.grad, [[expected]], rtol=1e-12)

    def test_as_tensor_wraps_arrays_and_passes_tensors_through(self):
        t = Tensor([1.0], requires_grad=True)
        assert as_tensor(t) is t
        ints = as_tensor(np.arange(3))
        assert isinstance(ints, Tensor) and ints.dtype == np.float64
        assert as_tensor(np.ones(2, np.float32)).dtype == np.float32
        assert not ints.requires_grad
