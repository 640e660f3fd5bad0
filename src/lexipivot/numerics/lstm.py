"""Fused LSTM cell: one gate matmul and a hand-written backward.

The cell arithmetic lives in plain NumPy kernels (`cell_forward`,
`dc_through_h`, `cell_backward`), shared by `lstm_step` and
`caption_loss`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor, _make


@dataclass
class LstmWeights:
    """Single-cell weights; gate order along columns is i | f | g | o."""

    w_ih: Tensor  # [d_in, 4H]
    w_hh: Tensor  # [H, 4H]
    bias: Tensor  # [4H]

    @property
    def hidden_size(self) -> int:
        return self.w_hh.shape[0]


def cell_forward(gates: np.ndarray, c_prev: np.ndarray):
    """Cell arithmetic on the pre-activations gates [B,4H] (i | f | g | o) and
    the previous cell c_prev [B,H]: (act [B,4H], c' [B,H], tanh(c'), h' [B,H]),
    where act holds the gate activations."""
    hs = c_prev.shape[1]
    act = 0.5 * (1.0 + np.tanh(0.5 * gates))   # sigmoid, one transcendental
    act[:, 2 * hs:3 * hs] = np.tanh(gates[:, 2 * hs:3 * hs])
    c = act[:, hs:2 * hs] * c_prev + act[:, :hs] * act[:, 2 * hs:3 * hs]
    tanh_c = np.tanh(c)
    return act, c, tanh_c, act[:, 3 * hs:] * tanh_c


def dc_through_h(dh: np.ndarray, act: np.ndarray, tanh_c: np.ndarray) -> np.ndarray:
    """The share of dL/dh' that reaches c' through h' = o * tanh(c')."""
    hs = tanh_c.shape[1]
    return dh * act[:, 3 * hs:] * (1.0 - tanh_c * tanh_c)


def cell_backward(dh: np.ndarray | None, dc: np.ndarray, act: np.ndarray,
                  c_prev: np.ndarray, tanh_c: np.ndarray) -> np.ndarray:
    """Gate gradients dL/dgates [B,4H] of one cell from dL/dh' (None: zero)
    and the whole of dL/dc', the `dc_through_h` share included. dL/dc_prev
    is dc * f."""
    hs = c_prev.shape[1]
    i, g = act[:, :hs], act[:, 2 * hs:3 * hs]
    do = dh * tanh_c if dh is not None else np.zeros_like(dc)
    deriv = act * (1.0 - act)               # sigmoid' on i|f|o
    deriv[:, 2 * hs:3 * hs] = 1.0 - g * g   # tanh' on g
    dgates = np.concatenate([dc * g, dc * c_prev, dc * i, do], axis=1)
    dgates *= deriv
    return dgates


def lstm_step(x: Tensor, state: tuple[Tensor, Tensor], weights: LstmWeights):
    """One LSTM step. x [B,d_in], state (h,c) [B,H] -> (h', c').

    The tape holds two nodes: c' owns the backward of all four gates, and
    h' is a child of c' that hands its o-gate gradient to c' and adds its
    share of dL/dc' before c' runs (reverse topological order).
    """
    h, c = state
    xd, hd, cd = x.data, h.data, c.data
    hs = weights.hidden_size
    w_ih, w_hh, bias = weights.w_ih, weights.w_hh, weights.bias
    if xd.ndim != 2 or hd.ndim != 2 or cd.ndim != 2 \
            or xd.shape[1] != w_ih.shape[0] or hd.shape[1] != hs or cd.shape[1] != hs \
            or w_ih.shape[1] != 4 * hs or bias.shape != (4 * hs,):
        raise ShapeError(
            f"lstm_step shape mismatch: x{xd.shape} h{hd.shape} c{cd.shape} "
            f"w_ih{w_ih.shape} w_hh{w_hh.shape} bias{bias.shape}")

    gates = xd @ w_ih.data + hd @ w_hh.data + bias.data
    act, c_data, tanh_c, h_data = cell_forward(gates, cd)
    grad_h = []                          # dL/dh', filled by h' before c' runs

    def backward_c(dc):
        dgates = cell_backward(grad_h.pop() if grad_h else None, dc, act, cd, tanh_c)
        if x.requires_grad:
            x.accumulate_grad(dgates @ w_ih.data.T, fresh=True)
        if h.requires_grad:
            h.accumulate_grad(dgates @ w_hh.data.T, fresh=True)
        if c.requires_grad:
            c.accumulate_grad(dc * act[:, hs:2 * hs], fresh=True)
        if w_ih.requires_grad:
            w_ih.accumulate_grad(xd.T @ dgates, fresh=True)
        if w_hh.requires_grad:
            w_hh.accumulate_grad(hd.T @ dgates, fresh=True)
        if bias.requires_grad:
            bias.accumulate_grad(dgates.sum(axis=0), fresh=True)

    def backward_h(dh):
        grad_h.append(dh)
        c_new.accumulate_grad(dc_through_h(dh, act, tanh_c), fresh=True)

    c_new = _make(c_data, (x, h, c, w_ih, w_hh, bias), backward_c)
    h_new = _make(h_data, (c_new,), backward_h)
    return h_new, c_new
