"""Region grounding of caption words on a frozen model.

The probe method runs one teacher-forced decode per region, each seeing a
single-region image, and normalizes the per-region probabilities of the
gold word into weights over the original regions. The attention method
reads the decoder's own attention weights at the step emitting each word.
Both produce one localized feature per word occurrence.

Each distinct image is encoded once (`encode_images`), `ROW_CAP` at a
time. Both methods decode in batches: captions of one token length share
a teacher-forced unroll of at most `ROW_CAP` decode rows (probe: K rows
per caption, one per region; attention: one row per caption over all K
regions). The cap bounds the per-step temporaries, so their memory is the
same for any corpus size.

The attention method steps `MultiLingualModel.step`. The probe method
unrolls on plain arrays, forward only: a probe row attends over one
region, whose weight is 1 and whose context is the region itself, so the
attention scorer computes nothing and is skipped. Both halves of the LSTM
input product are hoisted out of the recurrence (Appleyard, Kočiský and
Blunsom 2016, as in `caption_loss`): the word half once per caption and
step, the region half once per region. Each step is one product with the
previous hidden state, the shared `cell_forward` kernel and the tied
logits.

Word-feature tables are `arrayfile` containers of magic "LXWF". The meta
holds "language", "aggregated" and "counts", each word's occurrence count;
each word, in sorted order, has a float64 array of rows of one width D:
one row if the table is aggregated, else one per occurrence.
"""

from __future__ import annotations

import numpy as np

from .arrayfile import read_arrays, write_arrays
from .caption.model import MultiLingualModel
from .corpus.vocab import BOS, EOS, PAD, UNK
from .errors import FormatError, InputError, NumericError
from .numerics import Tensor, no_grad
from .numerics.lstm import cell_forward

TABLE_MAGIC = b"LXWF"
ROW_CAP = 128  # decode rows per batch, and images per encoder call


def localize_batch(model: MultiLingualModel, language: str, regions: np.ndarray,
                   tokens, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Teacher-forced decode of B captions of one length on their images.

    `regions` holds the encoded regions [B,K,D] of each caption's image
    (`model.encode(...).data`), `tokens` the sentinel-wrapped ids [B,L].
    Returns the localized feature [B,L-2,D] and region weights [B,L-2,K]
    of each word position, in the dtype of `regions`.

    Probe: each caption is decoded K times, each decode conditioned on one
    region throughout, so the probability of the gold word at step t
    reflects how well that region alone explains the word given the same
    textual prefix; the K probabilities are normalized into the weights.
    Attention: one decode over all K regions; its context vector and
    attention weights are the feature and weights.
    """
    tokens = np.asarray(tokens, dtype=np.intp)
    if method == "probe":
        return _probe_batch(model, language, regions, tokens)
    b, k, d = regions.shape
    steps = tokens.shape[1] - 2
    feats = np.empty((b, steps, d), dtype=regions.dtype)
    weights = np.empty((b, steps, k), dtype=regions.dtype)
    decoded = Tensor(regions)
    with no_grad():
        region_part = model.attention_precompute(decoded)
        state = model.initial_state(b)
        for t in range(1, steps + 1):
            _, state, alpha, context = model.step(language, state, tokens[:, t - 1],
                                                  decoded, region_part)
            weights[:, t - 1] = alpha.data
            feats[:, t - 1] = context.data
    return feats, weights


def _probe_batch(model: MultiLingualModel, language: str, regions: np.ndarray,
                 tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The probe decodes of `localize_batch`: B*K rows, row b*K + j seeing
    region j of caption b, whose LSTM input is [word | region]."""
    b, k, d = regions.shape
    steps = tokens.shape[1] - 2
    embed = model.embedding(language).data  # [E,V], tied output projection
    lstm = model.lstm_weights()
    w_ih, w_hh = lstm.w_ih.data, lstm.w_hh.data
    e, hs = embed.shape[0], lstm.hidden_size
    word_part = embed.T[tokens[:, :steps].T] @ w_ih[:e]  # [steps,B,4H]
    region_part = (regions.reshape(b * k, d) @ w_ih[e:] + lstm.bias.data).reshape(b, k, 4 * hs)
    h = np.zeros((b * k, hs), dtype=regions.dtype)
    c = np.zeros_like(h)
    feats = np.empty((b, steps, d), dtype=regions.dtype)
    weights = np.empty((b, steps, k), dtype=regions.dtype)
    rows = np.arange(b * k)
    for t in range(steps):
        gates = (h @ w_hh).reshape(b, k, 4 * hs)
        gates += region_part
        gates += word_part[t, :, None]
        _, c, _, h = cell_forward(gates.reshape(b * k, 4 * hs), c)
        logits = h @ embed
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        gold = np.repeat(tokens[:, t + 1], k)
        p_t = probs[rows, gold] / probs.sum(axis=1)  # strictly positive
        w = p_t.reshape(b, k)
        w = w / w.sum(axis=1, keepdims=True)
        weights[:, t] = w
        feats[:, t] = np.matmul(w[:, None, :], regions)[:, 0]
    return feats, weights


def encode_images(model: MultiLingualModel, examples,
                  regions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode the images `examples` use once each, `ROW_CAP` grids per
    encoder call in the order of `regions`, the language's region grids
    [M,K,F]. Returns the encoded regions [n,K,D] and each example's row in
    them. An encoder product that overflows, which `tanh` would hide as
    saturated regions, raises NumericError naming the language."""
    used, rows = np.unique([ex.image_row for ex in examples], return_inverse=True)
    try:
        with no_grad(), np.errstate(over="raise", invalid="raise"):
            chunks = [model.encode(regions[used[lo:lo + ROW_CAP]])
                      for lo in range(0, len(used), ROW_CAP)]
    except FloatingPointError as exc:
        raise NumericError(f"{examples[0].language_id}: region encoder is not finite "
                           f"({exc}); the model has diverged") from exc
    return np.concatenate([chunk.data for chunk in chunks]), rows


def word_occurrences(examples) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The caption of each word position, in corpus order (caption order,
    then position), and each word index's positions in that order.
    Sentinel and unknown tokens are dropped from the words."""
    words = np.array([t for ex in examples for t in ex.tokens[1:-1]], dtype=np.intp)
    captions = np.repeat(np.arange(len(examples)), [len(ex.tokens) - 2 for ex in examples])
    kept = np.flatnonzero(np.isin(words, (PAD, BOS, EOS, UNK), invert=True))
    by_word = kept[np.argsort(words[kept], kind="stable")]  # corpus order within a word
    word_ids, starts = np.unique(words[by_word], return_index=True)
    return captions, dict(zip(word_ids.tolist(), np.split(by_word, starts[1:])))


def collect_word_features(model: MultiLingualModel, examples, images, language: str,
                          method: str = "probe",
                          counts: dict | None = None) -> dict[int, np.ndarray]:
    """Localized feature rows [n, D] per word index over a corpus whose
    images `encode_images` encoded, in the order of `word_occurrences`.

    Captions are grouped by token length and decoded in batches of at most
    `ROW_CAP` decode rows. Each caption wraps at least one word in
    sentinels, as `index_captions` builds it. `counts`, when given,
    receives the occurrences decoded and dropped, the words kept, and the
    decode batches. A model that decodes non-finite features raises
    NumericError.
    """
    captions, occurrences = word_occurrences(examples)
    # a diverged model fails once, here, instead of warning from every batch
    try:
        with np.errstate(all="ignore"):
            rows, batches = _decode_rows(model, examples, images, language, method)
    except NumericError as exc:
        raise NumericError(f"{language}: {method} localization failed: {exc}") from exc
    if not np.isfinite(rows).all():
        raise NumericError(f"{language}: {method} localization decoded non-finite "
                           f"features; the model has diverged")

    sets = {word_index: rows[positions] for word_index, positions in occurrences.items()}
    if counts is not None:
        kept = sum(len(positions) for positions in occurrences.values())
        counts.update(occurrences=len(captions), dropped_unk=len(captions) - kept,
                      words=len(sets), batches=batches)
    return sets


def _decode_rows(model: MultiLingualModel, examples, images, language: str,
                 method: str) -> tuple[np.ndarray, int]:
    """The localized feature of every word position, in corpus order, and the
    number of decode batches."""
    regions, image_rows = images
    lengths = np.array([len(ex.tokens) for ex in examples], dtype=np.intp)
    first_row = np.concatenate(([0], np.cumsum(lengths - 2)))  # of each caption
    rows = np.empty((int(first_row[-1]), model.dims.embed_dim), dtype=model.dtype)
    per_batch = max(1, ROW_CAP // (model.dims.num_regions if method == "probe" else 1))
    batches = 0
    for length in np.unique(lengths):
        group = np.flatnonzero(lengths == length)
        for lo in range(0, len(group), per_batch):
            batch = group[lo:lo + per_batch]
            feats, _ = localize_batch(model, language, regions[image_rows[batch]],
                                      np.array([examples[i].tokens for i in batch]), method)
            rows[first_row[batch, None] + np.arange(length - 2)] = feats
            batches += 1
    return rows, batches


def write_word_features(path, language: str,
                        entries: dict[str, tuple[int, np.ndarray]],
                        aggregated: bool) -> None:
    """Write per-word features. `entries` maps word -> (occurrence count,
    matrix of rows); aggregated tables hold exactly one row per word."""
    words = sorted(entries)
    rows = {w: np.atleast_2d(np.asarray(entries[w][1], dtype=np.float64)) for w in words}
    # the width of the first word with rows; a word with none fits any width
    d = next((r.shape[-1] for r in rows.values() if r.size), 0)
    for word in words:
        count = entries[word][0]
        expected = (1 if aggregated else count, d)
        if count < 0 or rows[word].shape != expected:
            raise InputError(f"word {word!r}: expected {expected} feature rows and a "
                             f"non-negative count, got {rows[word].shape} and {count}")
    meta = {"language": language, "aggregated": bool(aggregated),
            "counts": [int(entries[w][0]) for w in words]}
    write_arrays(path, TABLE_MAGIC, "<f8", meta, rows)


def read_word_features(path):
    """Returns (language, aggregated flag, {word: (count, rows)}). A NaN or
    infinite feature value is a FormatError naming the word."""
    meta, arrays = read_arrays(path, TABLE_MAGIC, "<f8")
    language, aggregated, counts = (meta.get(k) for k in ("language", "aggregated", "counts"))
    if not (isinstance(language, str) and isinstance(aggregated, bool)
            and isinstance(counts, list) and len(counts) == len(arrays)
            and all(type(c) is int and c >= 0 for c in counts)):
        raise FormatError(f"{path}: meta does not give the language, the aggregated "
                          f"flag and one occurrence count per word")
    entries = dict(zip(arrays, zip(counts, arrays.values())))
    for word, (count, rows) in entries.items():
        if rows.ndim != 2 or len(rows) != (1 if aggregated else count):
            raise FormatError(f"{path}: word {word!r} with {count} occurrences has feature "
                              f"rows of shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise FormatError(f"{path}: word {word!r} has a non-finite feature value")
    if len({rows.shape[1] for rows in arrays.values()}) > 1:
        raise FormatError(f"{path}: feature rows of more than one width")
    return language, aggregated, entries
