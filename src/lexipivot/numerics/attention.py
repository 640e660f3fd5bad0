"""Fused additive attention (Show, Attend and Tell): one tape node per step.

The step arithmetic lives in plain NumPy kernels (`attention_forward`,
`attention_backward`), shared by `additive_attention` and `caption_loss`.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError, ShapeError
from .tensor import Tensor, _make


def attention_forward(h_part: np.ndarray, region_part: np.ndarray, regions: np.ndarray,
                      w2: np.ndarray, b2: np.ndarray):
    """One attention step on arrays: h_part [B,A] = h_prev @ w1[:H],
    region_part [B,K,A], regions [B,K,D] -> (u [B,K,A], alpha [B,K],
    context [B,D]), u being the scorer's hidden layer. Non-finite scores
    raise NumericError."""
    u = np.tanh(region_part + h_part[:, None, :])
    scores = (u @ w2)[:, :, 0] + b2
    if not np.isfinite(scores).all():
        raise NumericError("attention scores contain NaN or Inf")
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    return u, alpha, (alpha[:, None, :] @ regions)[:, 0, :]


def attention_backward(dcontext: np.ndarray, u: np.ndarray, alpha: np.ndarray,
                       regions: np.ndarray, w2: np.ndarray):
    """Score and pre-activation gradients of one step from dL/dcontext [B,D]:
    (dscores [B,K], dpre [B,K,A]). dL/dh_part is dpre summed over K, and
    dL/dregions through the weighted sum is alpha times dcontext."""
    dalpha = (regions @ dcontext[:, :, None])[:, :, 0]
    dscores = dalpha - (dalpha * alpha).sum(axis=1, keepdims=True)
    dscores *= alpha
    dpre = dscores[:, :, None] * w2[:, 0]
    dpre *= 1.0 - u * u
    return dscores, dpre


def additive_attention(h_prev: Tensor, regions: Tensor, region_part: Tensor,
                       w1: Tensor, w2: Tensor, b2: Tensor) -> tuple[Tensor, Tensor]:
    """Attention weights over regions and their weighted sum.

    With H = h_prev width and A = attention width:
      scores[b,k] = tanh(region_part[b*K+k] + h_prev[b] @ w1[:H]) @ w2 + b2
      alpha = softmax over k of scores,  context[b] = sum_k alpha[b,k] regions[b,k]
    h_prev [B,H], regions [B,K,D], region_part [B*K,A] (the region half of the
    scorer, bias included), w1 [H+D,A] (rows H: belong to region_part),
    w2 [A,1], b2 [1]. Returns (context [B,D], alpha [B,K]); context is the
    tape node, alpha is a plain tensor that carries no gradient.
    """
    hd, rd, rp = h_prev.data, regions.data, region_part.data
    if hd.ndim != 2 or rd.ndim != 3 or hd.shape[0] != rd.shape[0]:
        raise ShapeError(f"attention shape mismatch: h{hd.shape} regions{rd.shape}")
    b, k, _ = rd.shape
    if k == 0:
        raise ShapeError("cannot attend over zero regions")
    hs, a = hd.shape[1], w1.shape[1]
    if rp.shape != (b * k, a) or w1.shape[0] <= hs or w2.shape != (a, 1) \
            or b2.shape != (1,):
        raise ShapeError(
            f"attention shape mismatch: h{hd.shape} regions{rd.shape} "
            f"region_part{rp.shape} w1{w1.shape} w2{w2.shape} b2{b2.shape}")

    w1_hidden = w1.data[:hs]
    u, alpha, context = attention_forward(hd @ w1_hidden, rp.reshape(b, k, a), rd,
                                          w2.data, b2.data)

    def backward(g):
        dscores, dpre = attention_backward(g, u, alpha, rd, w2.data)
        if regions.requires_grad:
            regions.accumulate_grad(alpha[:, :, None] * g[:, None, :], fresh=True)
        if b2.requires_grad:
            b2.accumulate_grad(dscores.sum().reshape(1), fresh=True)
        if w2.requires_grad:
            w2.accumulate_grad(u.reshape(b * k, a).T @ dscores.reshape(b * k, 1), fresh=True)
        if region_part.requires_grad:
            region_part.accumulate_grad(dpre.reshape(b * k, a), fresh=True)
        dh_part = dpre.sum(axis=1)
        if h_prev.requires_grad:
            h_prev.accumulate_grad(dh_part @ w1_hidden.T, fresh=True)
        if w1.requires_grad:
            dw1 = np.zeros_like(w1.data)
            dw1[:hs] = hd.T @ dh_part
            w1.accumulate_grad(dw1, fresh=True)

    return (_make(context, (h_prev, regions, region_part, w1, w2, b2), backward),
            Tensor(alpha))
