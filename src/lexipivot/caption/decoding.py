"""Greedy caption generation."""

from __future__ import annotations

import numpy as np

from ..corpus.vocab import BOS, EOS, PAD, UNK
from ..numerics import no_grad
from .model import MultiLingualModel

_BANNED = (PAD, BOS, UNK)  # structural tokens that must never be emitted


def generate_caption(model: MultiLingualModel, language: str, features) -> list[int]:
    """Greedily decode one image into token ids (ends with the end sentinel
    when reached; always at most max_len - 1 emissions after the begin token)."""
    steps = model.dims.max_len - 1
    with no_grad():
        regions = model.encode(np.asarray(features)[None])
        region_part = model.attention_precompute(regions)
        state = model.initial_state(1)
        prev = BOS
        emitted: list[int] = []
        for _ in range(steps):
            logits, state, _, _ = model.step(language, state, np.array([prev]),
                                             regions, region_part)
            row = logits.data[0].copy()
            row[list(_BANNED)] = -np.inf
            token = int(np.argmax(row))
            emitted.append(token)
            if token == EOS:
                break
            prev = token
    return emitted
