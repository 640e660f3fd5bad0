"""Teacher-forced caption loss: one tape node for a whole training batch.

`caption_loss` runs a batch's region encoder, the region half of the
attention scorer, the decoder unroll, the tied output projection and the
masked mean cross-entropy, and backpropagates through all of them by hand.

The unroll follows Appleyard, Kočiský and Blunsom 2016 ("Optimizing
Performance of Recurrent Neural Networks on GPUs", arXiv:1604.01946): the
product that does not depend on the recurrence (the word half of the input
product) is hoisted out of the loop, each step makes one product with the
previous hidden state, and the backward loop keeps every step's gate and
score gradients so that the weight gradients are single products over all
T*B rows.

The per-step arithmetic is the kernels `cell_forward` and
`attention_forward`, which the forward-only decode of extraction
(`MultiLingualModel.step`) also runs, so training and extraction compute
the same cell and the same attention. The loss is the only tape node a
stage builds.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError
from .attention import attention_backward, attention_forward
from .lstm import LstmWeights, cell_backward, cell_forward, dc_through_h
from .tensor import Tensor, _make


def caption_loss(features: np.ndarray, tokens: np.ndarray, pad: int,
                 encoder: tuple[Tensor, Tensor], embed: Tensor, lstm: LstmWeights,
                 attention: tuple[Tensor, Tensor, Tensor]) -> tuple[Tensor, int]:
    """Mean negative log-likelihood of a batch's non-pad targets, and their
    count.

    features [B,K,F] holds each caption's raw region features, in the dtype
    of the weights. tokens [B,L] holds the sentinel-wrapped ids, `pad`
    after each caption's end: token t of a caption is fed at step t and
    predicted at step t-1, so the batch unrolls L-1 steps from the zero
    state.
      regions = tanh(features @ encoder weight + encoder bias)   [B,K,D]
      context_t = additive attention over the regions with h_{t-1}
      h_t = LSTM([embed[:, token_t] | context_t], state_{t-1})
      logits_t = h_t @ embed (tied weights, so H equals E)
    encoder = (weight [F,D], bias [D]); embed [E,V]; lstm.w_ih [E+D,4H];
    attention = (w1 [H+D,A], b1 [A], w2 [A,1]), whose rows H: of w1 and
    b1 form the region half of the scorer.
    """
    w_enc, b_enc = encoder
    w1, b1, w2 = attention
    w_ih, w_hh, bias = lstm.w_ih, lstm.w_hh, lstm.bias
    dtype = embed.dtype
    b, k, f = features.shape
    e, hs, a = embed.shape[0], lstm.hidden_size, w1.shape[1]
    d = w_enc.shape[1]
    steps = tokens.shape[1] - 1
    rows = steps * b

    # the encoder and the region half of the scorer, once per batch
    flat_features = features.reshape(b * k, f)
    flat_regions = np.tanh(flat_features @ w_enc.data + b_enc.data)
    rd = flat_regions.reshape(b, k, d)
    w1_region = w1.data[hs:]
    rp = (flat_regions @ w1_region + b1.data).reshape(b, k, a)

    # step-major: row t*B + b is caption b at step t; the widest caption
    # ends in the last column, so no step is all padding
    word_ids = tokens[:, :-1].T.reshape(-1)
    xd = embed.data[:, word_ids].T
    w_word, w_ctx = w_ih.data[:e], w_ih.data[e:]
    # the input product of every step, hoisted: word half plus bias. A
    # diverged model overflows here first; the trap costs nothing otherwise.
    try:
        with np.errstate(over="raise", invalid="raise"):
            x_part = xd @ w_word
            x_part += bias.data
    except FloatingPointError as exc:
        raise NumericError(f"decoder input product is not finite ({exc})") from exc
    # one product per step feeds both the gates and the scorer
    w_rec = np.concatenate([w_hh.data, w1.data[:hs]], axis=1)
    scorer = np.empty((steps, b, k, a), dtype=dtype)  # the scorer's tanh layer
    alphas = np.empty((steps, b, k), dtype=dtype)
    contexts = np.empty((steps, b, d), dtype=dtype)
    hidden = np.zeros((steps + 1, b, hs), dtype=dtype)  # hidden[t] enters step t
    cells = [hidden[0]]  # cells[t] enters step t
    acts, tanh_cells = [], []  # of each step
    x_part = x_part.reshape(steps, b, 4 * hs)
    for t in range(steps):
        rec = hidden[t] @ w_rec
        gates = x_part[t]
        gates += rec[:, :4 * hs]
        scorer[t], alphas[t], contexts[t] = attention_forward(rec[:, 4 * hs:], rp, rd, w2.data)
        gates += contexts[t] @ w_ctx
        act, cell, tanh_cell, hidden[t + 1] = cell_forward(gates, cells[t])
        acts.append(act)
        cells.append(cell)
        tanh_cells.append(tanh_cell)

    # tied logits and the masked cross-entropy, summed then averaged
    flat_hidden = hidden[1:].reshape(rows, hs)
    logits = flat_hidden @ embed.data
    targets = tokens[:, 1:].T.reshape(-1)
    mask = (targets != pad).astype(dtype)
    count = int(mask.sum())
    top = logits.max(axis=1, keepdims=True)
    exps = np.exp(logits - top)
    sums = exps.sum(axis=1)
    nll = np.log(sums) + top[:, 0] - logits[np.arange(rows), targets]
    mean = 1.0 / count

    def backward(g):
        # dL/dlogits: softmax minus the one-hot target, on the counted rows
        dlogits = exps / sums[:, None]
        dlogits[np.arange(rows), targets] -= 1.0
        dlogits *= (mask * float(g * mean))[:, None]
        dembed = flat_hidden.T @ dlogits
        dh_out = (dlogits @ embed.data.T).reshape(steps, b, hs)

        # each step's [dgates | dL/dh_part]: the gradient of `rec`
        drec = np.empty((steps, b, 4 * hs + a), dtype=dtype)
        dgates = drec[:, :, :4 * hs]
        dscores = np.empty((steps, b, k), dtype=dtype)
        dcontexts = np.empty((steps, b, d), dtype=dtype)
        dregion_part = np.zeros((b, k, a), dtype=dtype)
        dh_next = np.zeros((b, hs), dtype=dtype)
        dc_next = dh_next
        for t in reversed(range(steps)):
            dh = dh_out[t] + dh_next
            dc = dc_next + dc_through_h(dh, acts[t], tanh_cells[t])
            dgates[t] = cell_backward(dh, dc, acts[t], cells[t], tanh_cells[t])
            dc_next = dc * acts[t][:, hs:2 * hs]
            dcontexts[t] = dgates[t] @ w_ctx.T
            dscores[t], dpre = attention_backward(dcontexts[t], scorer[t], alphas[t],
                                                  rd, w2.data)
            drec[t, :, 4 * hs:] = dpre.sum(axis=1)
            dregion_part += dpre
            if t:
                dh_next = drec[t] @ w_rec.T

        flat_dgates = dgates.reshape(rows, 4 * hs)
        # the embedding gathered as each step's input: scatter-add as a
        # product with the one-hot rows, so repeated words sum
        onehot = np.zeros((rows, embed.shape[1]), dtype=dtype)
        onehot[np.arange(rows), word_ids] = 1.0
        dembed += (flat_dgates @ w_word.T).T @ onehot
        inputs = np.concatenate([xd, contexts.reshape(rows, d)], axis=1)
        dw_rec = hidden[:-1].reshape(rows, hs).T @ drec.reshape(rows, 4 * hs + a)
        flat_dregion_part = dregion_part.reshape(b * k, a)
        dw1 = np.concatenate([dw_rec[:, 4 * hs:], flat_regions.T @ flat_dregion_part])
        # the regions reach the loss through the contexts (the sum over steps
        # of alpha_t outer dcontext_t, one product per caption) and the scorer
        dregions = alphas.transpose(1, 2, 0) @ dcontexts.transpose(1, 0, 2)
        dregions += (flat_dregion_part @ w1_region.T).reshape(b, k, d)
        dpre_enc = dregions.reshape(b * k, d) * (1.0 - flat_regions * flat_regions)

        for p, grad in ((embed, dembed),
                        (w_ih, inputs.T @ flat_dgates),
                        (bias, flat_dgates.sum(axis=0)),
                        (w_hh, dw_rec[:, :4 * hs]),
                        (w1, dw1),
                        (b1, flat_dregion_part.sum(axis=0)),
                        (w2, scorer.reshape(rows * k, a).T @ dscores.reshape(rows * k, 1)),
                        (w_enc, flat_features.T @ dpre_enc),
                        (b_enc, dpre_enc.sum(axis=0))):
            p.accumulate_grad(grad)

    loss = np.array((nll * mask).sum() * mean, dtype=dtype)
    parents = (embed, w_ih, w_hh, bias, *encoder, *attention)
    return _make(loss, parents, backward), count
