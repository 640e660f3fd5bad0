"""On-disk corpus formats.

Spatial features (binary, little-endian):
  magic "LXPF" | version u32 | image count u32 | K u32 | D u32
  per image: image_id u64 | K*D float32
Captions (UTF-8 text): one record per line, image_id TAB language TAB caption.
Vocabulary (UTF-8 text): index TAB word TAB count, reserved rows included.
Text files that are not UTF-8 are FormatErrors, like any other bad layout.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import FormatError, InputError
from .vocab import RESERVED, RawCaption, Vocabulary

FEATURES_MAGIC = b"LXPF"
FEATURES_VERSION = 1


def write_features(path, features: dict[int, np.ndarray]) -> None:
    if not features:
        raise InputError("refusing to write an empty features file")
    ids = sorted(features)
    k, d = features[ids[0]].shape
    for image_id in ids:
        if features[image_id].shape != (k, d):
            raise InputError(
                f"image {image_id} has shape {features[image_id].shape}, expected {(k, d)}")
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC)
        fh.write(struct.pack("<IIII", FEATURES_VERSION, len(ids), k, d))
        for image_id in ids:
            fh.write(struct.pack("<Q", image_id))
            fh.write(np.ascontiguousarray(features[image_id], dtype="<f4").tobytes())


def read_features(path) -> dict[int, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != FEATURES_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {FEATURES_MAGIC!r}")
    if len(blob) < 20:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    version, count, k, d = struct.unpack_from("<IIII", blob, 4)
    if version != FEATURES_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    record = 8 + 4 * k * d
    expected = 20 + count * record
    if len(blob) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for {count} images of {k}x{d} "
            f"features, found {len(blob)} (region count varies or file is truncated)")
    features: dict[int, np.ndarray] = {}
    offset = 20
    for _ in range(count):
        (image_id,) = struct.unpack_from("<Q", blob, offset)
        if image_id in features:
            raise FormatError(f"{path}: duplicate image id {image_id} at offset {offset}")
        offset += 8
        arr = np.frombuffer(blob, dtype="<f4", count=k * d, offset=offset)
        features[image_id] = arr.reshape(k, d).copy()
        offset += 4 * k * d
    return features


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
    + lowercase."""
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
    return rows


def write_vocabulary(path, vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for index, word in enumerate(vocab.index_to_word):
            count = vocab.counts.get(word, 0)
            fh.write(f"{index}\t{word}\t{count}\n")


def read_vocabulary(path, language: str) -> Vocabulary:
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
        if index != len(words):
            raise FormatError(f"{path}:{lineno}: index {index} out of order")
        words.append(parts[1])
        counts[parts[1]] = count
    if words[: len(RESERVED)] != list(RESERVED):
        raise FormatError(f"{path}: reserved token rows are missing or reordered")
    return Vocabulary(language_id=language, index_to_word=words,
                      counts={w: c for w, c in counts.items() if w not in RESERVED})
