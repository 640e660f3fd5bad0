"""Dense tensors with reverse-mode gradients.

A Tensor wraps a numpy array plus an optional gradient buffer and a
backward closure. Operations record their parents so `backward()` can
replay the tape in reverse topological order. Only the layers the
caption model needs are provided; there is no general graph compiler.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


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


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and linear ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * c, fresh=True)

    return _make(a.data * c, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [m,k] and b [k,n]."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T, fresh=True)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g, fresh=True)

    return _make(data, (a, b), backward)


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * (1.0 - out_data * out_data), fresh=True)

    return _make(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape: tuple) -> Tensor:
    x = as_tensor(x)
    data = x.data.reshape(shape)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.shape))

    return _make(data, (x,), backward)


def _concat(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)

    def backward(g):
        start = 0
        for t in ts:
            stop = start + t.shape[axis]
            if t.requires_grad:
                t.accumulate_grad(g[start:stop] if axis == 0 else g[:, start:stop])
            start = stop

    return _make(data, tuple(ts), backward)


def concat_cols(tensors: Iterable[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along the last axis."""
    return _concat(tensors, 1)


def concat_rows(tensors: Iterable[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along the first axis."""
    return _concat(tensors, 0)


def row_slice(x: Tensor, start: int, stop: int) -> Tensor:
    x = as_tensor(x)
    data = x.data[start:stop]

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[start:stop] = g
            x.accumulate_grad(gx, fresh=True)

    return _make(data, (x,), backward)


def gather_cols(w: Tensor, indices: np.ndarray) -> Tensor:
    """Select columns of w [D,N] by index -> [len(indices),D] (embedding lookup)."""
    w = as_tensor(w)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= w.shape[1]):
        raise IndexError(f"column index out of range for shape {w.shape}")
    data = w.data[:, idx].T

    def backward(g):
        if w.requires_grad:
            # scatter-add as a product with the one-hot rows: repeated
            # indices sum, and one BLAS call beats np.add.at
            onehot = np.zeros((idx.size, w.shape[1]), dtype=g.dtype)
            onehot[np.arange(idx.size), idx] = 1.0
            w.accumulate_grad(g.T @ onehot, fresh=True)

    return _make(data, (w,), backward)


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
