"""Shared test oracles: finite differences, the per-step decoder unroll and
batch-of-one localization; hand-packed array containers; and rankings as
(word, score) pairs."""

import json
import struct

import numpy as np

from lexipivot.induction import TranslationRanking
from lexipivot.localization import localize_batch
from lexipivot.numerics import (
    Tensor,
    additive_attention,
    concat_cols,
    concat_rows,
    gather_cols,
    lstm_step,
    no_grad,
)

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
    """One caption decoded as a batch of one on its raw region features:
    (feature [L-2,D], region weights [L-2,K]) of each word position."""
    with no_grad():
        regions = model.encode(np.asarray(features)[None]).data
    feats, weights = localize_batch(model, language, regions, [tokens], method)
    return feats[0], weights[0]


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
    """Every (word, score) pair of a ranking, best first."""
    return ranking.top(len(ranking.items))


def ranking_from_pairs(source: str, method: str, pairs) -> TranslationRanking:
    """A ranking whose targets are the pairs' (distinct) words, in the pairs'
    order with their scores."""
    words = sorted(w for w, _ in pairs)
    rows = {w: i for i, w in enumerate(words)}
    order = np.array([rows[w] for w, _ in pairs], dtype=np.intp)
    return TranslationRanking(source, method, order, np.array([s for _, s in pairs]),
                              words, rows)
