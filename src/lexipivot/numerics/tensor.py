"""Dense tensors with reverse-mode gradients: the tape of the training loss.

A Tensor wraps a numpy array plus an optional gradient buffer and a
backward closure. A node (`_make`) records its parents so `backward()`
can replay the tape in reverse topological order. The only node a stage
builds is a training batch's `caption_loss`, whose parents are the
parameters; every forward-only computation runs on plain arrays.
`cross_entropy_rows` is a standalone loss node over [B,V] logits.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from ..errors import ShapeError

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

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add `g` [same shape as data] into the gradient slot.

        The first gradient is stored, not added to zeros: as a copy, or as
        `g` itself when the caller passes `fresh=True` to say that nothing
        else holds a reference to `g` (the slot is later updated in place).
        """
        if self.grad is None:
            self.grad = g if fresh and g.dtype == self.data.dtype \
                else g.astype(self.data.dtype)
        else:
            self.grad += g

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def backward(self) -> None:
        """Backpropagate from this (scalar) tensor through the tape."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Reverse topological order over the tape's op nodes, iteratively (deep
    unrolls). Leaves have nothing to run and are left out."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent._backward is not None and id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Tape node: requires_grad iff recording and any parent does."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def cross_entropy_rows(logits: Tensor, targets: np.ndarray,
                       mask: np.ndarray | None = None) -> Tensor:
    """Summed negative log-likelihood over rows of logits [B,V].

    `targets` holds one class index per row; rows where `mask` is 0
    contribute nothing to the value or the gradient.
    """
    logits = as_tensor(logits)
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
        if logits.requires_grad:
            e = np.exp(shifted)
            probs = e / e.sum(axis=1, keepdims=True)
            probs[np.arange(b), t] -= 1.0
            logits.accumulate_grad(probs * (m * float(g))[:, None], fresh=True)

    return _make(data, (logits,), backward)
