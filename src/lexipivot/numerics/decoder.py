"""Teacher-forced decoder unroll: one tape node for a whole language group.

In the style of Appleyard, Kočiský and Blunsom 2016 ("Optimizing
Performance of Recurrent Neural Networks on GPUs", arXiv:1604.01946): the
product that does not depend on the recurrence (the word half of the input
product) is hoisted out of the loop, each step makes one product with the
previous hidden state, and the backward loop keeps every step's gate and
score gradients so that the weight gradients are single products over all
T*B rows.

The per-step arithmetic is the kernels of `lstm_step` and
`additive_attention`, so the unroll and the two step ops compute the same
cell and the same attention.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError, ShapeError
from .attention import attention_backward, attention_forward
from .lstm import LstmWeights, cell_backward, cell_forward, dc_through_h
from .tensor import Tensor, _make


def decoder_unroll(words: Tensor, regions: Tensor, region_part: Tensor,
                   lstm: LstmWeights, attention: tuple[Tensor, Tensor, Tensor]) -> Tensor:
    """Hidden states [T*B,H] of a teacher-forced decode from the zero state.

    words [T*B,E] holds the embedding of each step's previous token,
    step-major: row t*B + b is caption b at step t. regions [B,K,D]. The
    LSTM input at each step is [word | context], so lstm.w_ih is [E+D,4H].
    The context is `additive_attention` over the regions with the previous
    hidden state; `attention` = (w1, w2, b2) are its weights and
    region_part [B*K,A] is the region half of its scorer. The output rows
    are step-major like `words`.
    """
    xd, rd = words.data, regions.data
    w_ih, w_hh, bias = lstm.w_ih, lstm.w_hh, lstm.bias
    w1, w2, b2 = attention
    hs, a = lstm.hidden_size, w1.shape[1]
    if xd.ndim != 2 or rd.ndim != 3:
        raise ShapeError(f"decoder_unroll shape mismatch: words{xd.shape} "
                         f"regions{rd.shape}")
    b, k, d = rd.shape
    e = xd.shape[1]
    if k == 0:
        raise ShapeError("cannot attend over zero regions")
    if b == 0 or xd.shape[0] == 0 or xd.shape[0] % b or w_ih.shape != (e + d, 4 * hs) \
            or w_hh.shape != (hs, 4 * hs) or bias.shape != (4 * hs,):
        raise ShapeError(
            f"decoder_unroll shape mismatch: words{xd.shape} regions{rd.shape} "
            f"w_ih{w_ih.shape} w_hh{w_hh.shape} bias{bias.shape}")
    if region_part.shape != (b * k, a) or w1.shape != (hs + d, a) \
            or w2.shape != (a, 1) or b2.shape != (1,):
        raise ShapeError(
            f"decoder_unroll attention shape mismatch: regions{rd.shape} "
            f"region_part{region_part.shape} w1{w1.shape} w2{w2.shape} b2{b2.shape}")
    steps = xd.shape[0] // b
    w_word, w_ctx = w_ih.data[:e], w_ih.data[e:]
    # the input product of every step, hoisted: word half plus bias. A
    # diverged model overflows here first; the trap costs nothing otherwise.
    try:
        with np.errstate(over="raise", invalid="raise"):
            x_part = (xd @ w_word + bias.data).reshape(steps, b, 4 * hs)
    except FloatingPointError as exc:
        raise NumericError(f"decoder input product is not finite ({exc})") from exc
    # one product per step feeds both the gates and the scorer
    w_rec = np.concatenate([w_hh.data, w1.data[:hs]], axis=1)
    rp = region_part.data.reshape(b, k, a)
    scorer = np.empty((steps, b, k, a), dtype=xd.dtype)  # the scorer's tanh layer
    alphas = np.empty((steps, b, k), dtype=xd.dtype)
    contexts = np.empty((steps, b, d), dtype=xd.dtype)

    hidden = np.zeros((steps + 1, b, hs), dtype=xd.dtype)  # hidden[t] enters step t
    cells = np.zeros((steps + 1, b, hs), dtype=xd.dtype)
    acts = np.empty((steps, b, 4 * hs), dtype=xd.dtype)
    tanh_cells = np.empty((steps, b, hs), dtype=xd.dtype)
    for t in range(steps):
        rec = hidden[t] @ w_rec
        gates = x_part[t]
        gates += rec[:, :4 * hs]
        scorer[t], alphas[t], contexts[t] = attention_forward(
            rec[:, 4 * hs:], rp, rd, w2.data, b2.data)
        gates += contexts[t] @ w_ctx
        acts[t], cells[t + 1], tanh_cells[t], hidden[t + 1] = cell_forward(gates, cells[t])

    def backward(g):
        dh_out = g.reshape(steps, b, hs)
        # each step's [dgates | dL/dh_part]: the gradient of `rec`
        drec = np.empty((steps, b, 4 * hs + a), dtype=g.dtype)
        dgates = drec[:, :, :4 * hs]
        dscores = np.empty((steps, b, k), dtype=g.dtype)
        dcontexts = np.empty((steps, b, d), dtype=g.dtype)
        dregion_part = np.zeros((b, k, a), dtype=g.dtype)
        dh_next = np.zeros((b, hs), dtype=g.dtype)
        dc_next = dh_next
        for t in reversed(range(steps)):
            dh = dh_out[t] + dh_next
            dc = dc_next + dc_through_h(dh, acts[t], tanh_cells[t])
            dgates[t] = cell_backward(dh, dc, acts[t], cells[t], tanh_cells[t])
            dc_next = dc * acts[t, :, hs:2 * hs]
            dcontexts[t] = dgates[t] @ w_ctx.T
            dscores[t], dpre = attention_backward(dcontexts[t], scorer[t], alphas[t],
                                                  rd, w2.data)
            drec[t, :, 4 * hs:] = dpre.sum(axis=1)
            dregion_part += dpre
            if t:
                dh_next = drec[t] @ w_rec.T

        rows = steps * b
        flat_dgates = dgates.reshape(rows, 4 * hs)
        if words.requires_grad:
            words.accumulate_grad(flat_dgates @ w_word.T, fresh=True)
        if regions.requires_grad:
            # sum over steps of alpha_t (outer) dcontext_t, one product per caption
            regions.accumulate_grad(
                alphas.transpose(1, 2, 0) @ dcontexts.transpose(1, 0, 2), fresh=True)
        if w_ih.requires_grad:
            inputs = np.concatenate([xd, contexts.reshape(rows, d)], axis=1)
            w_ih.accumulate_grad(inputs.T @ flat_dgates, fresh=True)
        if bias.requires_grad:
            bias.accumulate_grad(flat_dgates.sum(axis=0), fresh=True)
        dw_rec = hidden[:-1].reshape(rows, hs).T @ drec.reshape(rows, 4 * hs + a)
        if w_hh.requires_grad:
            w_hh.accumulate_grad(np.ascontiguousarray(dw_rec[:, :4 * hs]), fresh=True)
        if w1.requires_grad:
            dw1 = np.zeros_like(w1.data)
            dw1[:hs] = dw_rec[:, 4 * hs:]
            w1.accumulate_grad(dw1, fresh=True)
        if w2.requires_grad:
            w2.accumulate_grad(scorer.reshape(rows * k, a).T @ dscores.reshape(rows * k, 1),
                               fresh=True)
        if b2.requires_grad:
            b2.accumulate_grad(dscores.sum().reshape(1), fresh=True)
        if region_part.requires_grad:
            region_part.accumulate_grad(dregion_part.reshape(b * k, a), fresh=True)

    parents = (words, regions, w_ih, w_hh, bias, region_part, *attention)
    return _make(hidden[1:].reshape(steps * b, hs), parents, backward)
