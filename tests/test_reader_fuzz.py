"""Readers on truncated and mutated bytes: a valid result or a FormatError
(exit 3), never another exception."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lexipivot.arrayfile import read_arrays, write_arrays
from lexipivot.corpus import (
    GroundTruthLexicon,
    RawCaption,
    Vocabulary,
    read_captions,
    read_features,
    read_lexicon,
    read_vocabulary,
    write_captions,
    write_features,
    write_lexicon,
    write_vocabulary,
)
from lexipivot.corpus.vocab import RESERVED
from lexipivot.errors import FormatError
from lexipivot.localization import TABLE_MAGIC, read_word_features, write_word_features
from lexipivot.numerics import ParamStore

from helpers import edit_header


def write_lexicon_file(path):
    lexicon = GroundTruthLexicon("en", "de")
    lexicon.add("dog", "hund", "noun")
    lexicon.add("cat", "kätzchen")
    write_lexicon(path, lexicon)


def write_captions_file(path):
    write_captions(path, [RawCaption(3, "de", ("ein", "grüner", "hund")),
                          RawCaption(17, "de", ("eine", "katze"))])


def write_vocabulary_file(path):
    write_vocabulary(path, Vocabulary("de", list(RESERVED) + ["hund", "grün"],
                                      {"hund": 4, "grün": 2}))


def write_table_file(path, aggregated):
    rng = np.random.default_rng(0)
    entries = {"hund": (2, rng.normal(size=(1 if aggregated else 2, 3))),
               "katze": (1, rng.normal(size=(1, 3)))}
    write_word_features(path, "de", entries, aggregated=aggregated)


def write_params_file(path):
    store = ParamStore({"attn.b1": np.array(0.5), "embed.de": np.arange(6.0).reshape(2, 3),
                        "embed.en": np.array([1.0, -2.0, 0.25])})
    store.save(path)


def write_region_features_file(path):
    rng = np.random.default_rng(1)
    write_features(path, [3, 17], rng.normal(size=(2, 2, 3)))


def write_container_file(path):
    write_arrays(path, b"TEST", "<f8", {"ids": [3, 17], "language": "de"},
                 {"a": np.arange(6.0).reshape(2, 3), "b": np.array(0.5),
                  "c": np.zeros((0, 2))})


READERS = {
    "container": (write_container_file, lambda p: read_arrays(p, b"TEST", "<f8")),
    "lexicon": (write_lexicon_file, lambda p: read_lexicon(p, "en", "de")),
    "captions": (write_captions_file, lambda p: read_captions(p, "de")),
    "vocab": (write_vocabulary_file, lambda p: read_vocabulary(p, "de")),
    "lxwf-raw": (lambda p: write_table_file(p, False), read_word_features),
    "lxwf-aggregated": (lambda p: write_table_file(p, True), read_word_features),
    "lxpv": (write_params_file, ParamStore.load),
    "lxpf": (write_region_features_file, read_features),
}

EDITS = st.lists(st.one_of(
    st.tuples(st.just("set"), st.integers(0, 10_000), st.integers(0, 255)),
    st.tuples(st.just("insert"), st.integers(0, 10_000), st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("truncate"), st.integers(0, 10_000)),
), min_size=1, max_size=4)


def mutate(blob: bytes, edits) -> bytes:
    data = bytearray(blob)
    for edit in edits:
        at = edit[1] % (len(data) + 1)
        if edit[0] == "set" and at < len(data):
            data[at] = edit[2]
        elif edit[0] == "insert":
            data[at:at] = edit[2]
        elif edit[0] == "truncate":
            del data[at:]
    return bytes(data)


@pytest.mark.parametrize("kind", sorted(READERS))
@given(edits=EDITS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_file_reads_or_raises_format_error(kind, edits, tmp_path):
    write, read = READERS[kind]
    path = tmp_path / f"file.{kind}"
    write(path)
    read(path)   # the undamaged file reads
    path.write_bytes(mutate(path.read_bytes(), edits))
    try:
        read(path)
    except FormatError:
        pass


@pytest.mark.parametrize("kind", ["lexicon", "captions", "vocab"])
def test_non_utf8_byte_is_a_format_error_naming_its_line(kind, tmp_path):
    write, read = READERS[kind]
    path = tmp_path / f"file.{kind}"
    write(path)
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1][:2] + b"\xff" + lines[1][2:]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(FormatError, match=r":2: not valid UTF-8"):
        read(path)


def test_table_row_count_past_the_end_is_a_format_error(tmp_path):
    # rows x dimension is past the end of the file and past any buffer size
    path = tmp_path / "table.lxwf"
    write_table_file(path, aggregated=False)

    def claim_huge_rows(header):
        header["meta"]["counts"][0] = 0xFFFFFFFF
        header["arrays"][0][2] = [0xFFFFFFFF, 0xFFFFFFFF]
    edit_header(path, claim_huge_rows)
    with pytest.raises(FormatError, match="'rows' claims shape .*past the end"):
        read_word_features(path)


TABLE_META = st.fixed_dictionaries({
    "language": st.just("de"),
    "aggregated": st.one_of(st.booleans(), st.integers(0, 1)),
    "words": st.one_of(st.none(), st.lists(st.one_of(st.sampled_from("abc"), st.integers(0, 2)),
                                           max_size=4)),
    "counts": st.one_of(st.none(), st.lists(st.integers(-1, 3), max_size=4))})


@given(meta=TABLE_META, shape=st.lists(st.integers(0, 4), max_size=3))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_table_reads_exactly_when_its_meta_describes_its_block(meta, shape, tmp_path):
    """Any words, counts, flag and block shape: the table reads when the
    words are distinct strings in sorted order, with one count each, and
    the block is 2-D with the rows the counts give (one per word if the
    table is aggregated); each word's rows are then its part of the block
    in word order. Any other table is a FormatError."""
    words, counts, aggregated = meta["words"], meta["counts"], meta["aggregated"]
    block = np.arange(float(np.prod(shape))).reshape(shape)
    path = tmp_path / "table.lxwf"
    write_arrays(path, TABLE_MAGIC, "<f8", meta, {"rows": block})
    valid = (isinstance(words, list) and all(isinstance(w, str) for w in words)
             and words == sorted(set(words)) and isinstance(counts, list)
             and len(counts) == len(words) and all(c >= 0 for c in counts)
             and isinstance(aggregated, bool) and block.ndim == 2
             and len(block) == (len(words) if aggregated else sum(counts)))
    try:
        _, _, entries = read_word_features(path)
    except FormatError:
        assert not valid
        return
    assert valid
    assert list(entries) == words and [c for c, _ in entries.values()] == counts
    parts = [rows for _, rows in entries.values()]
    assert [len(rows) for rows in parts] == ([1] * len(words) if aggregated else counts)
    assert np.array_equal(np.concatenate([block[:0], *parts]), block)


@given(ids=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4, unique=True),
       grid=st.tuples(st.integers(1, 3), st.integers(1, 3)), data=st.data())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_non_finite_grid_value_is_a_format_error_naming_its_image(ids, grid, data, tmp_path):
    """Any NaN or infinity anywhere in the region grids: the first image, in
    file order, that holds one is named."""
    regions = np.zeros((len(ids), *grid), dtype=np.float32)
    flat = regions.reshape(-1)
    bad = data.draw(st.lists(st.tuples(st.integers(0, flat.size - 1),
                                       st.sampled_from([np.nan, np.inf, -np.inf])),
                             min_size=1))
    for i, value in bad:
        flat[i] = value
    path = tmp_path / "features.lxpf"
    write_features(path, ids, regions)
    first = ids[min(i for i, _ in bad) // (grid[0] * grid[1])]
    with pytest.raises(FormatError, match=f"image id {first} has a non-finite"):
        read_features(path)


def test_repeated_parameter_name_is_a_format_error(tmp_path):
    path = tmp_path / "params.lxpv"
    write_params_file(path)
    path.write_bytes(path.read_bytes().replace(b"embed.en", b"embed.de"))
    with pytest.raises(FormatError, match="embed.de"):
        ParamStore.load(path)


def test_parameter_shape_past_the_end_is_a_format_error(tmp_path):
    # 2**33 x 2**33 values: past the end of the file, and a count that wraps
    # to 0 in 64-bit integer arithmetic
    path = tmp_path / "params.lxpv"
    write_params_file(path)
    edit_header(path, lambda header: header["arrays"][1].__setitem__(2, [2**33, 2**33]))
    with pytest.raises(FormatError, match="'embed.de' claims shape .*past the end"):
        ParamStore.load(path)

