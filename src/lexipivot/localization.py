"""Region grounding of caption words on a frozen model.

The probe method runs one teacher-forced decode per region, each seeing a
single-region image, and normalizes the per-region probabilities of the
gold word into weights over the original regions. The attention method
reads the decoder's own attention weights at the step emitting each word.
Both produce one localized feature per word occurrence.

Each distinct image is encoded once (`encode_images`), `ROW_CAP` at a
time. A decode state depends only on the image and the tokens fed so far,
so captions of one image share every state up to the first word where
they differ. `localize` decodes each distinct (image, caption prefix)
once. `prefix_trie` numbers these states in one pass over the depths: a
node at depth t is the key (parent node, token t), at depth 0 (image,
BOS), so the nodes of each depth are in image order, and each chunk of
whole images owns one range of them, which the same pass rebases to the
chunk. The walk then decodes the chunks' paths one at a time, one depth
after the other, each node stepping from its parent's state; every word
occurrence reads the node whose step emits it. A chunk holds
`ROW_CAP // K` images for probe (K decode rows per node) and `ROW_CAP`
images for attention (one row per node), so the per-step temporaries are
bounded by the chunk, not by the corpus.

Both methods decode on plain arrays, forward only. The attention method
steps `MultiLingualModel.step`, one row per node. The probe method
unrolls its own loop: a probe row attends over one region, whose weight
is 1 and whose context is the region itself, so the attention scorer
computes nothing and is skipped. Both halves of the LSTM input product
are hoisted out of the recurrence (Appleyard, Kočiský and Blunsom 2016,
as in `caption_loss`): the word half once per vocabulary word, the
region half once per region. Each step is one product with the parent
nodes' hidden states, the shared `cell_forward` kernel and the tied
logits, whose softmax normalizer is computed once per node; each
occurrence then gathers its gold word's K probabilities.

Word-feature tables are `arrayfile` containers of magic "LXWF" holding
one float64 block "rows" [rows, D]. The meta holds "language",
"aggregated", "words" (sorted) and "counts", each word's occurrence
count. The words' rows follow each other in the block in word order: one
per word if the table is aggregated, else one per occurrence. The rows
are stored as computed; `induction.build_table` normalizes them.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .arrayfile import read_arrays, write_arrays
from .caption.model import MultiLingualModel
from .corpus.vocab import BOS, EOS, PAD, UNK, pad_tokens
from .errors import FormatError, NumericError
from .numerics.lstm import cell_forward

TABLE_MAGIC = b"LXWF"
ROW_CAP = 128  # depth-0 decode rows per chunk, and images per encoder call


def encode_images(model: MultiLingualModel, examples,
                  regions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode the images `examples` use once each, `ROW_CAP` grids per
    encoder call in the order of `regions`, the language's region grids
    [M,K,F]. Returns the encoded regions [n,K,D] and each example's row in
    them. An encoder product that overflows, which `tanh` would hide as
    saturated regions, raises NumericError naming the language."""
    used, rows = np.unique([ex.image_row for ex in examples], return_inverse=True)
    try:
        with np.errstate(over="raise", invalid="raise"):
            chunks = [model.encode(regions[used[lo:lo + ROW_CAP]])
                      for lo in range(0, len(used), ROW_CAP)]
    except FloatingPointError as exc:
        raise NumericError(f"{examples[0].language_id}: region encoder is not finite "
                           f"({exc}); the model has diverged") from exc
    return np.concatenate(chunks), rows


def word_occurrences(tokens: np.ndarray,
                     lengths: np.ndarray) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The caption of each word position of the captions whose tokens and
    lengths `pad_tokens` gave, in corpus order (caption order, then
    position), and each word index's positions in that order. Sentinel and
    unknown tokens are dropped from the words."""
    words = tokens[:, 1:][np.arange(tokens.shape[1] - 1) < lengths[:, None] - 2]
    captions = np.repeat(np.arange(len(lengths)), lengths - 2)
    kept = np.flatnonzero(np.isin(words, (PAD, BOS, EOS, UNK), invert=True))
    by_word = kept[np.argsort(words[kept], kind="stable")]  # corpus order within a word
    word_ids, starts = np.unique(words[by_word], return_index=True)
    return captions, dict(zip(word_ids.tolist(), np.split(by_word, starts[1:])))


def collect_word_features(model: MultiLingualModel, examples, images, language: str,
                          method: str, counts: dict | None = None) -> dict[int, np.ndarray]:
    """Localized feature rows [n, D] per word index over a corpus whose
    images `encode_images` encoded, in the order of `word_occurrences`.

    The rows come from `localize`. Each caption wraps at least one word in
    sentinels, as `index_captions` builds it. `counts`, when given,
    receives the occurrences and the decode states behind them, the
    occurrences dropped, the words kept, and the image chunks decoded. A
    model that decodes non-finite features raises NumericError.
    """
    padded = pad_tokens(examples)
    captions, occurrences = word_occurrences(*padded)
    # a diverged model fails once, here, instead of warning from every step
    try:
        with np.errstate(all="ignore"):
            rows, _, decoded, chunks = localize(model, language, padded, images, method)
    except NumericError as exc:
        raise NumericError(f"{language}: {method} localization failed: {exc}") from exc
    if not np.isfinite(rows).all():
        raise NumericError(f"{language}: {method} localization decoded non-finite "
                           f"features; the model has diverged")

    sets = {word_index: rows[positions] for word_index, positions in occurrences.items()}
    if counts is not None:
        kept = sum(len(positions) for positions in occurrences.values())
        counts.update(occurrences=len(captions), decoded=decoded,
                      dropped_unk=len(captions) - kept, words=len(sets), batches=chunks)
    return sets


def prefix_trie(tokens: np.ndarray, lengths: np.ndarray, image_rows: np.ndarray,
                per_chunk: int, chunks: int):
    """Each chunk's path through the prefix trie of the captions whose
    tokens and lengths `pad_tokens` gave and whose images `image_rows`
    holds. A chunk is `per_chunk` consecutive images; its path holds, per
    word position t, (parent, token, image, node, gold, row) of its nodes
    and of the occurrences reading them, with parent, image and node local
    to the chunk. One pass over the depths numbers the keys (parent, token
    t) with one `np.unique` over all captions and cuts them into chunks."""
    order = np.argsort(image_rows, kind="stable")  # captions by image
    tokens, words = tokens[order], lengths[order] - 2
    first_row = (np.cumsum(lengths - 2) - (lengths - 2))[order]
    width = int(tokens.max()) + 1
    parent_of = np.asarray(image_rows, dtype=np.intp)[order]  # each caption's, at depth 0
    paths, bounds = [[] for _ in range(chunks)], np.arange(chunks + 1)
    for t in range(tokens.shape[1] - 2):
        live = np.flatnonzero(words > t)
        keys, node = np.unique(parent_of[live] * width + tokens[live, t], return_inverse=True)
        parent_of[live] = node
        parent, token = keys // width, keys % width
        image = parent if t == 0 else image[parent]  # of each node, in image order
        chunk = image // per_chunk
        local = image - chunk * per_chunk
        # at depth 0 the parents are the images, deeper the nodes of depth t - 1
        parent = local if t == 0 else parent - starts[chunk]
        starts = np.searchsorted(chunk, bounds)  # each chunk's first node
        node_chunk = chunk[node]
        node -= starts[node_chunk]
        gold, row = tokens[live, t + 1], first_row[live] + t
        nodes, spans = starts.tolist(), np.searchsorted(node_chunk, bounds).tolist()
        for c, path in enumerate(paths):
            n, o = slice(nodes[c], nodes[c + 1]), slice(spans[c], spans[c + 1])
            if n.start < n.stop:  # a chunk without a node has none deeper
                path.append((parent[n], token[n], local[n], node[o], gold[o], row[o]))
    yield from paths


def localize(model: MultiLingualModel, language: str, captions, images,
             method: str) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Teacher-forced decode of every caption on its image, each distinct
    (image, caption prefix) once.

    `captions` is the (tokens, lengths) that `pad_tokens` gave for some
    examples, and `images` what `encode_images` returned for them. Returns
    the localized feature [n,D] and region weights [n,K] of every word position
    in corpus order (caption order, then position), in the dtype of the
    encoded regions, with the number of decode nodes and of image chunks.

    Probe: each node is decoded K times, each decode conditioned on one
    region throughout, so the probability of the gold word at step t
    reflects how well that region alone explains the word given the same
    textual prefix; the K probabilities are normalized into the weights.
    Attention: one decode over all K regions; its context vector and
    attention weights are the feature and weights.
    """
    regions, image_rows = images
    tokens, lengths = captions
    n, k, d = regions.shape
    size = int(np.sum(lengths - 2))
    feats = np.empty((size, d), dtype=regions.dtype)
    weights = np.empty((size, k), dtype=regions.dtype)
    if method == "probe":
        embed = model.embedding(language).data  # [E,V], tied output projection
        lstm = model.lstm_weights()
        e = embed.shape[0]
        decode = partial(_probe_chunk, embed, embed.T @ lstm.w_ih.data[:e],
                         lstm.w_ih.data[e:], lstm.w_hh.data, lstm.bias.data)
        per_chunk = max(1, ROW_CAP // k)
    else:
        decode, per_chunk = partial(_attention_chunk, model, language), ROW_CAP
    chunks, decoded = -(-n // per_chunk), 0
    for c, path in enumerate(prefix_trie(tokens, lengths, image_rows, per_chunk, chunks)):
        decode(regions[c * per_chunk:(c + 1) * per_chunk], path, feats, weights)
        decoded += sum(len(token) for _, token, *_ in path)
    return feats, weights, decoded, chunks


def _probe_chunk(embed, word_half, w_region, w_hh, bias, regions: np.ndarray, path,
                 feats: np.ndarray, weights: np.ndarray) -> None:
    """The probe decodes of one image chunk: K rows per node, row j seeing
    region j alone, whose LSTM input is [word | region]. `word_half` is
    the word half of that input product for every vocabulary word."""
    n, k, d = regions.shape
    hs = w_hh.shape[0]
    region_half = (regions.reshape(n * k, d) @ w_region + bias).reshape(n, k, 4 * hs)
    h = c = np.zeros((n, k, hs), dtype=regions.dtype)  # each image's empty prefix
    for parent, token, image, node, gold, row in path:
        m = len(token)
        gates = (h[parent].reshape(m * k, hs) @ w_hh).reshape(m, k, 4 * hs)
        gates += region_half[image]
        gates += word_half[token][:, None]
        _, c, _, h = cell_forward(gates.reshape(m * k, 4 * hs), c[parent].reshape(m * k, hs))
        logits = h @ embed
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits, out=logits).reshape(m, k, -1)
        norm = probs.sum(axis=2)  # once per node
        p = probs[node[:, None], np.arange(k), gold[:, None]] / norm[node]  # strictly positive
        w = p / p.sum(axis=1, keepdims=True)
        weights[row] = w
        feats[row] = np.matmul(w[:, None, :], regions[image[node]])[:, 0]
        h, c = h.reshape(m, k, hs), c.reshape(m, k, hs)


def _attention_chunk(model: MultiLingualModel, language: str, regions: np.ndarray, path,
                     feats: np.ndarray, weights: np.ndarray) -> None:
    """The attention decodes of one image chunk: one `MultiLingualModel.step`
    row per node, over its image's K regions."""
    region_part = model.attention_precompute(regions)
    state, images = model.initial_state(len(regions)), None  # each image's empty prefix
    for parent, token, image, node, _, row in path:
        state = tuple(s[parent] for s in state)
        if images is None or not np.array_equal(image, images):  # else reuse the gather
            images = image
            nodes = regions[image], region_part[image]
        state, alpha, context = model.step(language, state, token, *nodes)
        weights[row] = alpha[node]
        feats[row] = context[node]


def write_word_features(path, language: str,
                        entries: dict[str, tuple[int, np.ndarray]],
                        aggregated: bool) -> None:
    """Write per-word features. `entries` maps word -> (occurrence count,
    rows [n, D]): one row if the table is aggregated, else one per
    occurrence. The rows are stacked once, in sorted word order."""
    words = sorted(entries)
    rows = np.concatenate([entries[w][1] for w in words]) if words else np.zeros((0, 0))
    meta = {"language": language, "aggregated": bool(aggregated), "words": words,
            "counts": [int(entries[w][0]) for w in words]}
    write_arrays(path, TABLE_MAGIC, "<f8", meta, {"rows": rows})


def read_word_features(path):
    """Returns (language, aggregated flag, {word: (count, rows)}), each
    word's rows a view of the table's block. A NaN or infinite feature
    value is a FormatError naming the first such word in file order."""
    meta, arrays = read_arrays(path, TABLE_MAGIC, "<f8")
    if list(arrays) != ["rows"]:
        raise FormatError(f"{path}: holds the arrays {list(arrays)!r:.60} instead of one "
                          f"block 'rows'; regenerate a table of the per-word layout with "
                          f"`lexipivot extract`")
    rows = arrays["rows"]
    if rows.ndim != 2:
        raise FormatError(f"{path}: the row block has shape {rows.shape}, not [rows, D]")
    language, aggregated, words, counts = (
        meta.get(k) for k in ("language", "aggregated", "words", "counts"))
    if not (isinstance(language, str) and isinstance(aggregated, bool)
            and isinstance(words, list) and all(isinstance(w, str) for w in words)
            and words == sorted(set(words))
            and isinstance(counts, list) and len(counts) == len(words)
            and all(type(c) is int and c >= 0 for c in counts)):
        raise FormatError(f"{path}: meta does not give the language, the aggregated flag, "
                          f"the words sorted and distinct and one occurrence count per word")
    sizes = [1] * len(words) if aggregated else counts
    if sum(sizes) != len(rows):
        raise FormatError(f"{path}: {len(words)} words with {sum(sizes)} rows among them, "
                          f"but the block holds {len(rows)} rows")
    ends = np.cumsum(sizes, dtype=np.intp)
    if not np.isfinite(rows).all():   # name the first word, in file order, with a bad value
        bad = np.argmin(np.isfinite(rows).all(axis=1))
        word = words[int(np.searchsorted(ends, bad, side="right"))]
        raise FormatError(f"{path}: word {word!r} has a non-finite feature value")
    starts = [0, *ends.tolist()]
    return language, aggregated, {w: (c, rows[lo:hi]) for w, c, lo, hi
                                  in zip(words, counts, starts, starts[1:])}
