"""Additive attention (Show, Attend and Tell) kernels on plain arrays.

One step over K regions, with H the hidden width:
  scores[b,k] = tanh(region_part[b,k] + h_prev[b] @ w1[:H]) @ w2
  alpha = softmax over k of scores,  context[b] = sum_k alpha[b,k] regions[b,k]
region_part is the region half of the scorer, the regions times w1[H:]
plus b1, shared by every step. `attention_forward` is the step, which
`caption_loss` and `MultiLingualModel.attend` run; `attention_backward`
is its hand-written backward, which only `caption_loss` runs.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError


def attention_forward(h_part: np.ndarray, region_part: np.ndarray, regions: np.ndarray,
                      w2: np.ndarray):
    """One attention step on arrays: h_part [B,A] = h_prev @ w1[:H],
    region_part [B,K,A], regions [B,K,D] -> (u [B,K,A], alpha [B,K],
    context [B,D]), u being the scorer's hidden layer. Non-finite scores
    raise NumericError."""
    u = np.tanh(region_part + h_part[:, None, :])
    scores = (u @ w2)[:, :, 0]
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
