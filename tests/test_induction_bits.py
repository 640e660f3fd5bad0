"""The induce stage's array code against the per-word code it replaced.

`build_table`, the gold-rank count and the rankings writer must give the
bytes that a `mean_unit` and a `unit_rows` per set, a gold-rank loop per
lexicon word and a rankings writer per cell gave (`helpers`). The tables
are drawn to hold what rounds or compares differently in bulk: rows whose
norm is under ZERO_NORM, +0.0 and -0.0 rows, words with no visual or
global set, empty sets, sets whose mean is zero, one image row in the sets
of many words, sets of 1, 8 or more, and 100 rows, rows of width 0, of
width 1 (whose means numpy sums pairwise) and wider, and targets tied
across the last place of the rankings.
"""

import dataclasses
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lexipivot import localization, pipeline
from lexipivot.corpus import GroundTruthLexicon
from lexipivot.induction import (
    ZERO_NORM,
    WordFeatureTable,
    build_table,
    gold_index,
    gold_ranks,
    unit,
    write_rankings,
)

from helpers import gold_ranks_by_word, table_by_word, write_rankings_by_cell

SET_SIZES = (0, 1, 1, 2, 3, 8, 9, 17, 100)


def row_pool(rng, width):
    """Image rows to draw sets from: a zero row, a -0.0 row, a row under
    ZERO_NORM, two rows that differ only in the sign of a zero, a row and
    its negation, and rows of mixed scales; rows of width 0 are all empty."""
    if not width:
        return np.zeros((13, 0))
    signed = rng.normal(size=width)
    signed[0] = 0.0
    flipped = signed.copy()
    flipped[0] = -0.0
    opposed = rng.normal(size=width)
    pool = [np.zeros(width), np.full(width, -0.0), rng.normal(size=width) * ZERO_NORM / 10,
            signed, flipped, opposed, -opposed]
    pool += list(rng.normal(size=(6, width)) * 10.0 ** rng.integers(-3, 4, size=(6, 1)))
    return np.array(pool).reshape(len(pool), width)


def draw_sets(rng, words, pool, share, sizes):
    """A set for about `share` of the words: rows of `pool`, most often its
    first random row, which many sets then hold, mixed with fresh rows."""
    sets = {}
    for word in words:
        if rng.random() >= share:
            continue
        size = int(rng.choice(sizes))
        picks = np.where(rng.random(size) < 0.3, len(pool) - 6,
                         rng.integers(0, len(pool), size=size))
        rows = pool[picks].copy()
        fresh = rng.random(size) < 0.3
        rows[fresh] = rng.normal(size=(int(fresh.sum()), pool.shape[1]))
        sets[word] = rows
    return sets


@st.composite
def language_pair(draw):
    """Two languages' (linguistic, visual sets, global sets) of shared
    widths, and a lexicon between them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    widths = {kind: draw(st.sampled_from((1, 2, 3, 8) if kind == "ling" else (0, 1, 2, 3, 8)))
              for kind in ("ling", "vis", "glob")}
    shares = {kind: draw(st.sampled_from((0.0, 0.5, 0.9))) for kind in ("vis", "glob")}
    raws = []
    for prefix, most in (("s", 12), ("t", 45)):
        words = [f"{prefix}{i:02d}" for i in range(draw(st.integers(1, most)))]
        # few linguistic profiles, so that many targets tie
        profiles = [unit(v) for v in rng.normal(size=(int(rng.integers(1, 5)), widths["ling"]))]
        ling = {w: profiles[int(rng.integers(len(profiles)))] for w in words}
        vis = draw_sets(rng, words, row_pool(rng, widths["vis"]), shares["vis"], (0, 1, 1, 2, 8))
        glob = draw_sets(rng, words, row_pool(rng, widths["glob"]), shares["glob"], SET_SIZES)
        raws.append((ling, vis, glob))
    targets = sorted(raws[1][0]) + ["not-a-target"]
    lexicon = GroundTruthLexicon("s", "t")
    for word in sorted(raws[0][0]) + ["not-a-source"]:
        for target in rng.choice(targets, size=min(len(targets), int(rng.integers(1, 4))),
                                 replace=False):
            lexicon.add(word, str(target))
    return raws, lexicon


def assert_same_table(got: WordFeatureTable, want: WordFeatureTable):
    assert got.words == want.words and got.language_id == want.language_id
    for field in dataclasses.fields(WordFeatureTable):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            assert a.tobytes() == b.tobytes(), field.name


@given(language_pair(), st.sampled_from((1, 7, 64, localization.RUN_VALUES)))
@settings(max_examples=150, deadline=None)
def test_array_code_gives_the_bytes_of_the_per_word_code(pair, run):
    """Every `WordFeatureTable` array, with the global rows keyed in runs of
    about `run` values, every method's gold-rank table and the rankings.tsv
    text."""
    raws, lexicon = pair
    tables = {}
    with mock.patch.object(localization, "RUN_VALUES", run):
        for language, raw in zip(("s", "t"), raws):
            tables[language] = build_table(language, *raw)
            assert_same_table(tables[language], table_by_word(language, *raw))
    source, target = tables["s"], tables["t"]
    scored = pipeline.score_methods(source, target)
    methods = pipeline.compute_rankings(tables, "s", "t", scored)
    gold = gold_index(lexicon, source.rows, target.rows)
    for method, rankings in methods.items():
        assert (list(gold_ranks(scored[method], gold).items())
                == list(gold_ranks_by_word(rankings, lexicon).items())), method
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.tsv", Path(tmp) / "want.tsv"
        write_rankings(got, scored, source.words, target.words)
        write_rankings_by_cell(want, methods)
        assert got.read_bytes() == want.read_bytes()
