"""Region grounding of caption words on a frozen model.

The probe method runs one teacher-forced decode per region, each seeing a
single-region image, and normalizes the per-region probabilities of the
gold word into weights over the original regions. The attention method
reads the decoder's own attention weights at the step emitting each word.
Both produce one localized feature per word occurrence.

Word-feature table file (binary, little-endian):
  magic "LXWF" | version u32 | flags u32 (bit 0: aggregated) | D u32
  | word count u32 | language: len u32 + UTF-8
  per word: len u32 + UTF-8 | occurrence count u32
            | (1 row if aggregated else count rows) x D float64
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .caption.model import MultiLingualModel
from .corpus.vocab import BOS, EOS, PAD, UNK
from .errors import FormatError, InputError
from .numerics import Tensor, no_grad
from .seeding import substream

TABLE_MAGIC = b"LXWF"
TABLE_VERSION = 1
FLAG_AGGREGATED = 1


@dataclass(frozen=True)
class LocalizedOccurrence:
    word_index: int
    language_id: str
    image_id: int
    position: int        # 1-based step within the caption
    feature: np.ndarray  # [D] convex combination of encoded regions
    weights: np.ndarray  # [K] non-negative, sums to 1


def _check_caption(tokens) -> None:
    if len(tokens) < 3 or tokens[0] != BOS or tokens[-1] != EOS:
        raise InputError("caption tokens must be sentinel-wrapped with at least one word")


def localize(model: MultiLingualModel, language: str, features,
             tokens, image_id: int = -1) -> list[LocalizedOccurrence]:
    """Probe localization: per-region decodes score the gold word.

    Each of the K decodes is conditioned on its single region throughout,
    so the probability of the gold word at step t reflects how well that
    region alone explains the word given the same textual prefix.
    """
    tokens = list(tokens)
    _check_caption(tokens)
    n = model.vocab_sizes.get(language)
    if n is None:
        raise KeyError(f"language {language!r} is not registered with this model")
    with no_grad():
        encoded = model.encode(np.asarray(features)[None])
        a = encoded.data[0]                       # [K, D] original encoded regions
        k = a.shape[0]
        probe_regions = Tensor(a[:, None, :])     # K decodes x 1 region each
        region_part = model.attention_precompute(probe_regions)
        state = model.initial_state(k)
        out = []
        for t in range(1, len(tokens) - 1):
            prev = np.full(k, tokens[t - 1], dtype=np.intp)
            logits, state, _, _ = model.step(language, state, prev,
                                             probe_regions, region_part)
            shifted = logits.data - logits.data.max(axis=1, keepdims=True)
            probs = np.exp(shifted)
            probs /= probs.sum(axis=1, keepdims=True)
            p_t = probs[:, tokens[t]]             # strictly positive
            weights = p_t / p_t.sum()
            out.append(LocalizedOccurrence(
                word_index=tokens[t], language_id=language, image_id=image_id,
                position=t, feature=weights @ a, weights=weights))
    return out


def localize_by_attention(model: MultiLingualModel, language: str, features,
                          tokens, image_id: int = -1) -> list[LocalizedOccurrence]:
    """Attention localization: reuse the decoder's own context vectors."""
    tokens = list(tokens)
    _check_caption(tokens)
    if language not in model.vocab_sizes:
        raise KeyError(f"language {language!r} is not registered with this model")
    with no_grad():
        regions = model.encode(np.asarray(features)[None])
        region_part = model.attention_precompute(regions)
        state = model.initial_state(1)
        out = []
        for t in range(1, len(tokens) - 1):
            prev = np.array([tokens[t - 1]], dtype=np.intp)
            _, state, alpha, context = model.step(language, state, prev,
                                                  regions, region_part)
            out.append(LocalizedOccurrence(
                word_index=tokens[t], language_id=language, image_id=image_id,
                position=t, feature=context.data[0].copy(),
                weights=alpha.data[0].copy()))
    return out


_METHODS = {"probe": localize, "attention": localize_by_attention}


def collect_word_features(model: MultiLingualModel, examples, features_by_id,
                          language: str, method: str = "probe",
                          cap: int | None = None,
                          seed: int = 0) -> dict[int, list[np.ndarray]]:
    """Localized feature set per word index over a corpus.

    Sentinel and unknown tokens are dropped. With `cap` set, each word
    keeps a seeded uniform subsample of at most `cap` occurrences.
    Iteration order (caption order, then position) fixes the output.
    """
    if method not in _METHODS:
        raise InputError(f"unknown localization method {method!r}")
    localizer = _METHODS[method]

    sets: dict[int, list[np.ndarray]] = {}
    for ex in examples:
        for occ in localizer(model, language, features_by_id[ex.scene_id], ex.tokens,
                             image_id=ex.scene_id):
            if occ.word_index not in (PAD, BOS, EOS, UNK):
                sets.setdefault(occ.word_index, []).append(occ.feature)

    if cap is not None:
        for word_index, feats in sets.items():
            if len(feats) > cap:
                rng = substream(seed, f"subsample:{language}:{word_index}")
                keep = sorted(rng.choice(len(feats), size=cap, replace=False))
                sets[word_index] = [feats[i] for i in keep]
    return sets


def write_word_features(path, language: str,
                        entries: dict[str, tuple[int, np.ndarray]],
                        aggregated: bool) -> None:
    """Write per-word features. `entries` maps word -> (occurrence count,
    matrix of rows); aggregated tables hold exactly one row per word."""
    with open(path, "wb") as fh:
        fh.write(TABLE_MAGIC)
        first = next(iter(entries.values()))[1] if entries else np.zeros((0, 0))
        d = first.shape[-1] if first.size else 0
        flags = FLAG_AGGREGATED if aggregated else 0
        fh.write(struct.pack("<IIII", TABLE_VERSION, flags, d, len(entries)))
        encoded_lang = language.encode("utf-8")
        fh.write(struct.pack("<I", len(encoded_lang)))
        fh.write(encoded_lang)
        for word in sorted(entries):
            count, rows = entries[word]
            rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
            expected = 1 if aggregated else count
            if rows.shape != (expected, d):
                raise InputError(
                    f"word {word!r}: expected {(expected, d)} feature rows, "
                    f"got {rows.shape}")
            encoded = word.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", count))
            fh.write(np.ascontiguousarray(rows, dtype="<f8").tobytes())


def read_word_features(path):
    """Returns (language, aggregated flag, {word: (count, rows)})."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != TABLE_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {TABLE_MAGIC!r}")
    try:
        version, flags, d, count = struct.unpack_from("<IIII", blob, 4)
        if version != TABLE_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        aggregated = bool(flags & FLAG_AGGREGATED)
        offset = 20
        (lang_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        language = blob[offset:offset + lang_len].decode("utf-8")
        offset += lang_len
        entries: dict[str, tuple[int, np.ndarray]] = {}
        for _ in range(count):
            (word_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            word = blob[offset:offset + word_len].decode("utf-8")
            offset += word_len
            (occ,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            n_rows = 1 if aggregated else occ
            if offset + 8 * n_rows * d > len(blob):
                raise FormatError(f"{path}: word {word!r} claims {n_rows}x{d} feature rows, "
                                  f"past the end of the file")
            rows = np.frombuffer(blob, dtype="<f8", count=n_rows * d, offset=offset)
            offset += 8 * n_rows * d
            entries[word] = (occ, rows.reshape(n_rows, d).copy())
    except (struct.error, ValueError) as exc:
        raise FormatError(f"{path}: truncated or corrupt table: {exc}") from exc
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes")
    return language, aggregated, entries
