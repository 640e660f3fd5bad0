"""On-disk corpus formats.

Spatial features: an `arrayfile` container of magic "LXPF"; meta "image_ids"
lists N image ids, and the float32 array "regions" [N, K, D] their grids:
row i holds image_ids[i], in the order written.
Captions (UTF-8 text): one record per line, image_id TAB language TAB caption.
Vocabulary (UTF-8 text): index TAB word TAB count, reserved rows included.
Text files that are not UTF-8 are FormatErrors, like any other bad layout.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..arrayfile import read_arrays, write_arrays
from ..errors import FormatError, InputError
from .vocab import RESERVED, RawCaption, Vocabulary

FEATURES_MAGIC = b"LXPF"


def write_features(path, image_ids, regions: np.ndarray) -> None:
    """Write `image_ids` and their grids `regions` [N, K, D] in the order given.
    A block not 3-D, a length mismatch or a duplicate id is an InputError."""
    ids = [int(i) for i in image_ids]
    if np.ndim(regions) != 3 or len(ids) != len(regions):
        raise InputError(f"need one K x D region grid per image id, got {len(ids)} ids "
                         f"and a block of shape {np.shape(regions)}")
    if len(set(ids)) != len(ids):
        raise InputError(f"duplicate image id {Counter(ids).most_common(1)[0][0]}")
    write_arrays(path, FEATURES_MAGIC, "<f4", {"image_ids": ids}, {"regions": regions})


def read_features(path) -> tuple[list[int], np.ndarray]:
    """The N distinct image ids of a features file and their region grids
    [N, K, D], row i holding image ids[i]. A NaN or infinite value is a
    FormatError."""
    meta, arrays = read_arrays(path, FEATURES_MAGIC, "<f4")
    ids, regions = meta.get("image_ids"), arrays.get("regions")
    if not (list(arrays) == ["regions"] and regions.ndim == 3 and isinstance(ids, list)
            and len(ids) == len(regions) and all(type(i) is int for i in ids)):
        raise FormatError(f"{path}: expected N image ids and one N x K x D array \"regions\"")
    if len(set(ids)) != len(ids):
        raise FormatError(f"{path}: duplicate image id {Counter(ids).most_common(1)[0][0]}")
    finite = np.isfinite(regions).all(axis=(1, 2))
    if not finite.all():   # name the first image, in file order, with a bad value
        bad = ids[np.argmin(finite)]
        raise FormatError(f"{path}: image id {bad} has a non-finite feature value")
    return ids, regions


def text_records(path):
    """(line number, line) for every non-empty line of a UTF-8 text file.

    Newlines are universal, as in text mode. A byte sequence that is not
    UTF-8 raises FormatError naming its line.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = blob.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{lineno}: not valid UTF-8 ({exc.reason})") from exc
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line]


def write_captions(path, captions: list[RawCaption]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for cap in captions:
            fh.write(f"{cap.image_id}\t{cap.language_id}\t{cap.text}\n")


def read_captions(path, language: str) -> list[RawCaption]:
    """Parse caption records, all of `language`; tokenization is whitespace
    + lowercase. A file with no caption record is a FormatError."""
    rows: list[RawCaption] = []
    for lineno, line in text_records(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        raw_id, lang, text = parts
        if lang != language:
            raise FormatError(
                f"{path}:{lineno}: caption language {lang!r} in a {language!r} captions file")
        try:
            image_id = int(raw_id)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: image id {raw_id!r} is not an integer") from exc
        words = tuple(text.lower().split())
        if not words:
            raise FormatError(f"{path}:{lineno}: empty caption text")
        rows.append(RawCaption(image_id=image_id, language_id=lang, words=words))
    if not rows:
        raise FormatError(f"{path}: no caption records")
    return rows


def write_vocabulary(path, vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for index, word in enumerate(vocab.index_to_word):
            count = vocab.counts.get(word, 0)
            fh.write(f"{index}\t{word}\t{count}\n")


def read_vocabulary(path, language: str) -> Vocabulary:
    """A vocabulary file. An empty word, a negative count and a word listed
    twice are FormatErrors naming their line; a repeated word's index would
    shadow the first one's."""
    words: list[str] = []
    counts: dict[str, int] = {}
    for lineno, line in text_records(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        try:
            index, count = int(parts[0]), int(parts[2])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: non-integer index or count") from exc
        if not parts[1]:
            raise FormatError(f"{path}:{lineno}: empty word")
        if count < 0:
            raise FormatError(f"{path}:{lineno}: negative count {count}")
        if index != len(words):
            raise FormatError(f"{path}:{lineno}: index {index} out of order")
        if parts[1] in counts:
            raise FormatError(f"{path}:{lineno}: word {parts[1]!r} is already listed at "
                              f"index {words.index(parts[1])}")
        words.append(parts[1])
        counts[parts[1]] = count
    if words[: len(RESERVED)] != list(RESERVED):
        raise FormatError(f"{path}: reserved token rows are missing or reordered")
    return Vocabulary(language_id=language, index_to_word=words,
                      counts={w: c for w, c in counts.items() if w not in RESERVED})
