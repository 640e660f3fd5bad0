"""Vocabularies, raw captions, and token-indexed training examples."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<s>", "</s>", "<unk>")


@dataclass(frozen=True)
class RawCaption:
    image_id: int
    language_id: str
    words: tuple[str, ...]

    @property
    def text(self) -> str:
        return " ".join(self.words)


@dataclass(frozen=True)
class CaptionedExample:
    """Sentinel-wrapped token-id sequence for one (image, caption) pair;
    `image_row` is the image's row in its language's region block."""

    image_row: int
    language_id: str
    tokens: tuple[int, ...]


@dataclass
class Vocabulary:
    language_id: str
    index_to_word: list[str]
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.word_to_index = {w: i for i, w in enumerate(self.index_to_word)}

    @property
    def size(self) -> int:
        return len(self.index_to_word)

    def content_words(self) -> list[str]:
        return self.index_to_word[len(RESERVED):]

    def index(self, word: str) -> int:
        return self.word_to_index.get(word, UNK)

    def word(self, index: int) -> str:
        return self.index_to_word[index]

    def encode(self, words) -> list[int]:
        return [self.index(w) for w in words]


def build_vocabulary(captions, min_count: int = 6) -> Vocabulary:
    """Index words occurring at least `min_count` times (strict 'more than
    five' at the default); ties in count are broken lexicographically. The
    captions are one language's, and there is at least one."""
    counts = Counter()
    for cap in captions:
        counts.update(cap.words)
    retained = sorted((w for w, c in counts.items() if c >= min_count),
                      key=lambda w: (-counts[w], w))
    vocab = Vocabulary(
        language_id=captions[0].language_id,
        index_to_word=list(RESERVED) + retained,
        counts={w: counts[w] for w in retained},
    )
    return vocab


def index_captions(captions, image_rows, vocab: Vocabulary) -> list[CaptionedExample]:
    """Each caption indexed whole and wrapped in sentinels, with its image's
    row from `image_rows`."""
    return [CaptionedExample(row, cap.language_id, (BOS, *vocab.encode(cap.words), EOS))
            for cap, row in zip(captions, image_rows)]


def pad_tokens(examples) -> tuple[np.ndarray, np.ndarray]:
    """Every example's tokens as one [N, longest] matrix, PAD after each
    caption's end, and the caption lengths [N]."""
    lengths = np.fromiter((len(ex.tokens) for ex in examples), np.intp, len(examples))
    tokens = np.full((len(examples), lengths.max()), PAD, dtype=np.intp)
    tokens[np.arange(tokens.shape[1]) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(ex.tokens for ex in examples), np.intp, lengths.sum())
    return tokens, lengths
