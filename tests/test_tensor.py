"""The one-node tape (`Tensor`, `_make`, `backward`, `no_grad`) on hand-made
nodes, and the `cross_entropy_rows` loss node."""

import math

import numpy as np
import pytest

from lexipivot.errors import InputError, ShapeError
from lexipivot.numerics import Tensor, cross_entropy_rows, grad_enabled, no_grad
from lexipivot.numerics.tensor import _make

from helpers import assert_grads_close


def tanh_node(x):
    out = np.tanh(x.data)
    return _make(out, (x,), lambda g: x.accumulate_grad(g * (1.0 - out * out)))


def weighted_tanh(x, w):
    """sum(w * tanh(x)) as one scalar node."""
    out = np.tanh(x.data)
    return _make(np.array((w * out).sum()), (x,),
                 lambda g: x.accumulate_grad(g * w * (1.0 - out * out)))


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

    def test_recorded_parent_is_rejected(self):
        """`backward` runs only its own node's closure, so a node on another
        recorded node would lose that node's gradient."""
        y = tanh_node(Tensor([[2.0]], requires_grad=True))
        with pytest.raises(InputError, match="must be leaves"):
            weighted_tanh(y, np.ones((1, 1)))
        with no_grad():
            assert not weighted_tanh(y, np.ones((1, 1))).requires_grad

    def test_backward_runs_the_node_closure(self):
        x = Tensor([[0.3, -1.2]], requires_grad=True)
        w = np.array([[2.0, -0.5]])
        loss = weighted_tanh(x, w)
        loss.backward()
        assert loss.grad == 1.0
        np.testing.assert_allclose(x.grad, w * (1.0 - np.tanh(x.data) ** 2), atol=1e-15)

    def test_first_gradients_do_not_share_buffers(self):
        """The first gradient a leaf receives is stored as a copy, so leaves
        that one closure hands the same array accumulate apart."""
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0, 4.0]], requires_grad=True)

        def backward(g):
            d = np.full((1, 2), float(g))
            a.accumulate_grad(d)
            b.accumulate_grad(d)

        _make(np.array((a.data + b.data).sum()), (a, b), backward).backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.accumulate_grad(np.full((1, 2), 5.0))
        np.testing.assert_array_equal(a.grad, [[6.0, 6.0]])
        np.testing.assert_array_equal(b.grad, [[1.0, 1.0]])

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            loss = weighted_tanh(x, rng.normal(size=(4, 4)))
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
        assert not y.requires_grad and y._backward is None
