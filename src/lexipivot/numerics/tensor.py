"""Dense tensors and the one-node reverse-mode tape of the training loss.

A Tensor wraps a numpy array plus an optional gradient buffer and a
backward closure. The tape is one node: `_make` records a closure that
writes the gradients of its leaf parents, and `backward()` seeds the
node's gradient and runs that closure. A node built on another recorded
node is an InputError, so no gradient is silently lost. The only node a
stage builds is a training batch's `caption_loss`, whose parents are the
parameters; every forward-only computation runs on plain arrays.
`cross_entropy_rows` is a standalone loss node over [B,V] logits.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from ..errors import InputError, ShapeError

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (read-only inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class Tensor:
    """Dense array plus gradient slot. Data is row-major float32/float64."""

    __slots__ = ("data", "requires_grad", "grad", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add `g` [same shape as data] into the gradient slot; the first
        gradient is stored as a copy."""
        if self.grad is None:
            self.grad = g.astype(self.data.dtype)
        else:
            self.grad += g

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def backward(self) -> None:
        """Seed this scalar's gradient with 1 and run its node's closure."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        self.grad = np.ones_like(self.data)
        if self._backward is not None:
            self._backward(self.grad)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Tape node: requires_grad iff recording and any parent does. Its
    parents must be leaves: `backward` runs only the node's own closure."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        if any(p._backward is not None for p in parents):
            raise InputError("a tape node's parents must be leaves, not recorded nodes")
        out.requires_grad = True
        out._backward = backward
    return out


def cross_entropy_rows(logits: Tensor, targets: np.ndarray,
                       mask: np.ndarray | None = None) -> Tensor:
    """Summed negative log-likelihood over rows of logits [B,V].

    `targets` holds one class index per row; rows where `mask` is 0
    contribute nothing to the value or the gradient.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross entropy expects [B,V] logits, got {logits.shape}")
    b, v = logits.shape
    t = np.asarray(targets, dtype=np.intp)
    if t.shape != (b,):
        raise ShapeError(f"targets shape {t.shape} does not match batch {b}")
    if t.size and (t.min() < 0 or t.max() >= v):
        raise IndexError(f"target index out of range for vocabulary of size {v}")
    m = np.ones(b, dtype=logits.dtype) if mask is None else np.asarray(mask, dtype=logits.dtype)

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.data.max(axis=1)
    nll = lse - logits.data[np.arange(b), t]
    data = np.array((nll * m).sum(), dtype=logits.dtype)

    def backward(g):
        e = np.exp(shifted)
        probs = e / e.sum(axis=1, keepdims=True)
        probs[np.arange(b), t] -= 1.0
        logits.accumulate_grad(probs * (m * float(g))[:, None])

    return _make(data, (logits,), backward)
