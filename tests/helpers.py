"""Shared test oracles: finite differences, the per-step decoder unroll,
the per-tensor Adam step and gradient clip, the per-step probe and
attention decodes and one-caption localization built on them; padded
batches; hand-packed array containers; rankings as (word, score) pairs,
sorted in Python; and one source word's ranking."""

import json
import struct

import numpy as np

from lexipivot.corpus.vocab import PAD
from lexipivot.induction import RANKING_WIDTH, TranslationRanking
from lexipivot.numerics import (
    Tensor,
    additive_attention,
    concat_cols,
    concat_rows,
    gather_cols,
    lstm_step,
    no_grad,
)
from lexipivot.numerics.optim import BETA1, BETA2, EPSILON
from lexipivot.pipeline import compute_rankings

# Each evaluation of f may be off by a few ulps of |f|; a central difference
# divides that by eps, so this many ulps of |f| over eps are round-off, not
# gradient error.
ROUNDOFF_ULPS = 4


def numeric_gradient(f, tensor, eps=1e-6):
    """Central-difference gradient of scalar f() w.r.t. tensor.data.

    f must rebuild its computation from the live tensor on every call.
    """
    flat = tensor.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(f().item())
        flat[i] = orig - eps
        f_minus = float(f().item())
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad.reshape(tensor.data.shape)


def roundoff_atol(value, eps, dtype=np.float64):
    """Absolute round-off of a central difference of f at step eps, where
    f evaluates to `value` (taken as at least 1 in magnitude)."""
    return ROUNDOFF_ULPS * np.finfo(dtype).eps * max(abs(value), 1.0) / eps


def max_rel_err(analytic, numeric, atol=0.0):
    """Largest relative gradient error after forgiving `atol` of absolute
    error, so `max_rel_err(a, n, atol) < tol` is the bound
    |a - n| < atol + tol * max(|a|, |n|) on every element."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    excess = np.maximum(np.abs(a - n) - atol, 0.0)
    scale = np.maximum(np.abs(a), np.abs(n))
    rel = np.divide(excess, scale, out=np.zeros_like(excess), where=scale > 0)
    return float(np.max(rel)) if a.size else 0.0


def assert_grads_close(f, tensors, tol=1e-6, eps=1e-6):
    """Backward of f() against central differences for each tensor.

    f must be deterministic: it is evaluated twice at the same point and
    the two values must agree exactly.
    """
    for t in tensors:
        t.zero_grad()
    loss = f()
    loss.backward()
    value, again = float(loss.item()), float(f().item())
    assert value == again, f"closure is not deterministic: {value!r} != {again!r}"
    atol = roundoff_atol(value, eps, loss.data.dtype)
    for t in tensors:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        t.zero_grad()
        numeric = numeric_gradient(f, t, eps=eps)
        err = max_rel_err(analytic, numeric, atol)
        assert err < tol, f"gradient mismatch (rel err {err:.3e} >= tol {tol:.1e})"


def localize_one(model, language, features, tokens, method="probe"):
    """One caption decoded on its raw region features by the per-step
    oracles: (feature [L-2,D], region weights [L-2,K]) of each word
    position."""
    with no_grad():
        regions = model.encode(np.asarray(features)[None]).data
    by_steps = probe_by_steps if method == "probe" else attention_by_steps
    feats, weights = by_steps(model, language, regions, [tokens])[:2]
    return feats[0], weights[0]


def probe_by_steps(model, language, regions, tokens):
    """The probe decode as `model.step` on B*K single-region rows, one
    caption of tokens [B,L] per image of regions [B,K,D]: the path the
    hoisted probe decode replaced. Returns (features [B,L-2,D], weights
    [B,L-2,K], each step's attention weights [L-2,B*K,1] and contexts
    [L-2,B*K,D])."""
    tokens = np.asarray(tokens, dtype=np.intp)
    b, k, d = regions.shape
    decoded = Tensor(regions.reshape(b * k, 1, d))  # B*K decodes x 1 region each
    tokens_by_row = np.repeat(tokens, k, axis=0)
    row_ids = np.arange(b * k)
    feats, weights, alphas, contexts = [], [], [], []
    with no_grad():
        region_part = model.attention_precompute(decoded)
        state = model.initial_state(b * k)
        for t in range(1, tokens.shape[1] - 1):
            logits, state, alpha, context = model.step(
                language, state, tokens_by_row[:, t - 1], decoded, region_part)
            shifted = logits.data - logits.data.max(axis=1, keepdims=True)
            probs = np.exp(shifted)
            p_t = probs[row_ids, tokens_by_row[:, t]] / probs.sum(axis=1)
            w = p_t.reshape(b, k)
            w = w / w.sum(axis=1, keepdims=True)
            weights.append(w)
            feats.append(np.matmul(w[:, None, :], regions)[:, 0])
            alphas.append(alpha.data)
            contexts.append(context.data)
    return (np.stack(feats, axis=1), np.stack(weights, axis=1), np.stack(alphas),
            np.stack(contexts))


def attention_by_steps(model, language, regions, tokens):
    """The attention decode as `model.step` on one row per caption of tokens
    [B,L] over its image's regions [B,K,D]. Returns (features [B,L-2,D],
    weights [B,L-2,K]): each step's context vector and attention weights."""
    tokens = np.asarray(tokens, dtype=np.intp)
    feats, weights = [], []
    with no_grad():
        decoded = Tensor(regions)
        region_part = model.attention_precompute(decoded)
        state = model.initial_state(len(tokens))
        for t in range(1, tokens.shape[1] - 1):
            _, state, alpha, context = model.step(language, state, tokens[:, t - 1], decoded,
                                                  region_part)
            weights.append(alpha.data)
            feats.append(context.data)
    return np.stack(feats, axis=1), np.stack(weights, axis=1)


def unroll_by_steps(embed, tokens, regions, region_part, lstm, attention):
    """The teacher-forced unroll as one tape op per piece and step: the
    composition `decoder_unroll` replaced. Caption b's token t feeds step t;
    returns the step-major hidden states [T*B,H], T = tokens.shape[1] - 1."""
    tokens = np.asarray(tokens, dtype=np.intp)
    zeros = np.zeros((regions.shape[0], lstm.hidden_size), dtype=regions.dtype)
    state = Tensor(zeros), Tensor(zeros.copy())
    hidden = []
    for t in range(tokens.shape[1] - 1):
        context, _ = additive_attention(state[0], regions, region_part, *attention)
        state = lstm_step(concat_cols([gather_cols(embed, tokens[:, t]), context]), state,
                          lstm)
        hidden.append(state[0])
    return concat_rows(hidden)


def padded_batch(examples, regions):
    """A batch as `MultiLingualModel.sequence_loss` takes it: the tokens
    [B,L] PAD-padded to the widest caption and the region features [B,K,F]
    of each caption's image, row `image_row` of the language's `regions`."""
    width = max(len(ex.tokens) for ex in examples)
    tokens = np.array([ex.tokens + (PAD,) * (width - len(ex.tokens)) for ex in examples])
    return tokens, np.stack([regions[ex.image_row] for ex in examples])


def clip_by_tensor(params, max_norm):
    """`clip_global_norm` one tensor at a time, as it was before the flat
    buffers: the squares summed per tensor in name order, in float64."""
    total = 0.0
    for _, p in params.items():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        for _, p in params.items():
            if p.grad is not None:
                p.grad *= max_norm / norm
    return norm


def adam_by_tensor(params, moments, step, learning_rate):
    """`adam_update` one tensor at a time, as it was before the flat
    buffers: step `step` (from 1) over every parameter with a gradient.
    `moments` maps name -> (m, v) and gains an entry at a tensor's first
    gradient; gradients are cleared after."""
    step_size = learning_rate / (1.0 - BETA1 ** step)
    v_scale = 1.0 / (1.0 - BETA2 ** step)
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m, v = moments.setdefault(name, (np.zeros_like(p.data), np.zeros_like(p.data)))
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        denom = v * v_scale
        np.sqrt(denom, out=denom)
        denom += EPSILON
        update = step_size * m
        update /= denom
        p.data -= update
        p.zero_grad()


def pack_container(magic: bytes, header, payload: bytes = b"", version: int = 2) -> bytes:
    """The bytes of an array container with a hand-made JSON header."""
    text = json.dumps(header).encode("utf-8")
    return struct.pack("<4sII", magic, version, len(text)) + text + payload


def edit_header(path, edit) -> None:
    """Rewrite a container file's JSON header in place with `edit(header)`,
    keeping its magic, version and array bytes."""
    blob = path.read_bytes()
    magic, version, length = struct.unpack_from("<4sII", blob)
    header = json.loads(blob[12:12 + length])
    edit(header)
    path.write_bytes(pack_container(magic, header, blob[12 + length:], version))


def ranked_pairs(ranking: TranslationRanking) -> list[tuple[str, float]]:
    """Every (word, score) pair of a ranking, best first: a Python sort of
    its row by (-score, word). The ranking's head must hold the sort's first
    min(RANKING_WIDTH, targets) places."""
    pairs = sorted(zip(ranking.words, ranking.row.tolist()), key=lambda kv: (-kv[1], kv[0]))
    assert len(ranking.head) == min(RANKING_WIDTH, len(pairs))
    assert ranking.top(RANKING_WIDTH) == pairs[:RANKING_WIDTH]
    return pairs


def ranking_from_pairs(source: str, method: str, pairs) -> TranslationRanking:
    """A ranking whose targets are the pairs' (distinct) words with their
    scores. The pairs come best first, by (-score, word), as a ranking
    orders them."""
    assert list(pairs) == sorted(pairs, key=lambda kv: (-kv[1], kv[0]))
    words = sorted(w for w, _ in pairs)
    rows = {w: i for i, w in enumerate(words)}
    row = np.empty(len(words))
    row[[rows[w] for w, _ in pairs]] = [s for _, s in pairs]
    head = np.array([rows[w] for w, _ in pairs[:RANKING_WIDTH]], dtype=np.intp)
    return TranslationRanking(source, method, row, head, words, rows)


def rank_word(method: str, x: str, source, target) -> TranslationRanking:
    """`x`'s ranking under `method` against every target word, through
    `compute_rankings`; a KeyError for a word the method does not rank."""
    return compute_rankings({"source": source, "target": target}, "source", "target")[method][x]
