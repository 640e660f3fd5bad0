"""LSTM cell kernels on plain arrays.

`cell_forward` is the cell arithmetic on the gate pre-activations;
`dc_through_h` and `cell_backward` are its hand-written backward, which
only `caption_loss` runs. `lstm_step` is one forward step for decoding,
built on `cell_forward`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


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


def cell_backward(dh: np.ndarray, dc: np.ndarray, act: np.ndarray,
                  c_prev: np.ndarray, tanh_c: np.ndarray) -> np.ndarray:
    """Gate gradients dL/dgates [B,4H] of one cell from dL/dh' and the whole
    of dL/dc', the `dc_through_h` share included. dL/dc_prev is dc * f."""
    hs = c_prev.shape[1]
    i, g = act[:, :hs], act[:, 2 * hs:3 * hs]
    deriv = act * (1.0 - act)               # sigmoid' on i|f|o
    deriv[:, 2 * hs:3 * hs] = 1.0 - g * g   # tanh' on g
    dgates = np.concatenate([dc * g, dc * c_prev, dc * i, dh * tanh_c], axis=1)
    dgates *= deriv
    return dgates


def lstm_step(x: np.ndarray, state: tuple[np.ndarray, np.ndarray],
              weights: LstmWeights) -> tuple[np.ndarray, np.ndarray]:
    """One forward LSTM step on arrays: x [B,d_in], state (h, c) [B,H] ->
    (h', c')."""
    h, c = state
    gates = x @ weights.w_ih.data + h @ weights.w_hh.data + weights.bias.data
    _, c_new, _, h_new = cell_forward(gates, c)
    return h_new, c_new
