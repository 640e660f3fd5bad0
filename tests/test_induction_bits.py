"""The induce stage's array code against the per-word code it replaced.

`build_table`, the cnn_avgmax scorer, the gold-rank count, the reports,
the manifest counts and the rankings and ranks writers must give the
bytes that a `mean_unit` and a `unit_rows` per set, a `maximum.reduceat`
over the target sets and a mean per source word, a gold-rank loop and an
evaluation per lexicon word, and writers per cell and per line gave
(`helpers`). The tables are drawn to hold what rounds or compares
differently in bulk: rows whose norm is under ZERO_NORM, +0.0 and -0.0
rows, sets of only such rows, words with no visual or global set, empty
sets, sets whose mean is zero, one image row in the sets of many words,
sets of 1, 8 or more, and 100 rows (every size from 1 to 17 and 100 in one
cnn_avgmax table), rows of width 0, of width 1 (whose means numpy sums
pairwise) and wider, and targets tied across the last place of the
rankings. The lexicons hold words missing
from the source table, words whose gold targets are all missing from the
target table, untagged words and a POS group with no evaluable word; a
method scores no source when no source word has its vectors.
"""

import dataclasses
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexipivot import induction, pipeline
from lexipivot.corpus import GroundTruthLexicon
from lexipivot.errors import EmptyResultError
from lexipivot.induction import (
    BASELINE_SET_CAP,
    ZERO_NORM,
    WordFeatureTable,
    build_table,
    cnn_avgmax_scores,
    gold_index,
    gold_ranks,
    write_rankings,
    write_ranks,
    write_report_csv,
    write_report_json,
)

from helpers import (
    cnn_avgmax_by_word,
    gold_ranks_by_word,
    ranking_counts_by_word,
    reports_by_word,
    table_by_word,
    write_rankings_by_cell,
    write_ranks_by_line,
)

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


def draw_set(rng, pool, size):
    """`size` rows of `pool`, most often its first random row, which many
    sets then hold, mixed with fresh rows; one set in five holds only the
    pool's zero, -0.0 and under-ZERO_NORM rows, whose cosines are all
    zero."""
    if rng.random() < 0.2:
        return pool[rng.integers(0, 3, size=size)].copy()
    picks = np.where(rng.random(size) < 0.3, len(pool) - 6,
                     rng.integers(0, len(pool), size=size))
    rows = pool[picks].copy()
    fresh = rng.random(size) < 0.3
    rows[fresh] = rng.normal(size=(int(fresh.sum()), pool.shape[1]))
    return rows


def draw_sets(rng, words, pool, share, sizes):
    """A `draw_set` of a size among `sizes` for about `share` of the words."""
    return {word: draw_set(rng, pool, int(rng.choice(sizes)))
            for word in words if rng.random() < share}


@st.composite
def language_pair(draw):
    """Two languages' (linguistic, visual sets, global sets) of shared
    widths, and a lexicon between them: each source word tagged "noun",
    "verb" or not at all, about one in five with "not-a-target" as its only
    target, and a word the source table lacks tagged "orphan"."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    widths = {kind: draw(st.sampled_from((1, 2, 3, 8) if kind == "ling" else (0, 1, 2, 3, 8)))
              for kind in ("ling", "vis", "glob")}
    shares = {kind: draw(st.sampled_from((0.0, 0.5, 0.9))) for kind in ("vis", "glob")}
    raws = []
    for prefix, most in (("s", 12), ("t", 45)):
        words = [f"{prefix}{i:02d}" for i in range(draw(st.integers(1, most)))]
        # few linguistic profiles, so that many targets tie, at scales apart
        profiles = rng.normal(size=(int(rng.integers(1, 5)), 1, widths["ling"]))
        profiles *= 10.0 ** rng.integers(-3, 4, size=(len(profiles), 1, 1))
        ling = {w: profiles[int(rng.integers(len(profiles)))] for w in words}
        vis = draw_sets(rng, words, row_pool(rng, widths["vis"]), shares["vis"], (0, 1, 1, 2, 8))
        glob = draw_sets(rng, words, row_pool(rng, widths["glob"]), shares["glob"], SET_SIZES)
        raws.append((ling, vis, glob))
    targets = sorted(raws[1][0]) + ["not-a-target"]
    lexicon = GroundTruthLexicon("s", "t")
    for word in sorted(raws[0][0]):
        tag = (None, "noun", "verb")[int(rng.integers(3))]
        picks = (["not-a-target"] if rng.random() < 0.2 else
                 rng.choice(targets, size=min(len(targets), int(rng.integers(1, 4))),
                            replace=False))
        for target in picks:
            lexicon.add(word, str(target), tag)
    lexicon.add("not-a-source", targets[0], "orphan")
    return raws, lexicon


def assert_same_table(got: WordFeatureTable, want: WordFeatureTable):
    assert got.words == want.words and got.language_id == want.language_id
    for field in dataclasses.fields(WordFeatureTable):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            assert a.tobytes() == b.tobytes(), field.name


@given(language_pair(), st.sampled_from((1, 7, 64, induction.RUN_VALUES)))
@settings(max_examples=150, deadline=None)
def test_array_code_gives_the_bytes_of_the_per_word_code(pair, run):
    """Every `WordFeatureTable` array, every method's gold-rank array, the
    manifest counts and the rankings.tsv, ranks.tsv, report.csv and
    report.json text, with the global rows keyed, the gold ranks counted
    and the rankings written in runs of about `run` values."""
    raws, lexicon = pair
    with mock.patch.object(induction, "RUN_VALUES", run):
        tables = {}
        for language, raw in zip(("s", "t"), raws):
            tables[language] = build_table(language, *raw)
            assert_same_table(tables[language], table_by_word(language, *raw))
        source, target = tables["s"], tables["t"]
        scored = pipeline.score_methods(source, target)
        gold = gold_index(lexicon, source.rows, target.rows)
        ranks = {method: gold_ranks(s, gold) for method, s in scored.items()}
        by_word = {method: gold_ranks_by_word(s, source.words, target.words, lexicon)
                   for method, s in scored.items()}
        for method in scored:
            assert (list(zip(gold.words, ranks[method].tolist()))
                    == list(by_word[method].items())), method
        # the manifest holds them as JSON, so the types must match too
        assert (json.dumps(pipeline.ranking_counts(scored, len(target.words), ranks))
                == json.dumps(ranking_counts_by_word(scored, len(source.words), by_word)))
        try:
            reports = pipeline.reports_for(scored, ranks, gold)
        except EmptyResultError:
            reports = None
            with pytest.raises(EmptyResultError):
                reports_by_word(scored, source.words, by_word, lexicon)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got", Path(tmp) / "want"
            got.mkdir()
            want.mkdir()
            write_rankings(got / "rankings.tsv", scored, source.words, target.words)
            write_rankings_by_cell(want / "rankings.tsv", scored, source.words, target.words)
            write_ranks(got / "ranks.tsv", ranks, gold)
            write_ranks_by_line(want / "ranks.tsv", by_word, lexicon)
            if reports is not None:
                want_reports = reports_by_word(scored, source.words, by_word, lexicon)
                assert reports == want_reports   # to the last bit, not only as written
                for directory, rows in ((got, reports), (want, want_reports)):
                    write_report_csv(directory / "report.csv", rows)
                    write_report_json(directory / "report.json", rows)
            for path in sorted(want.iterdir()):
                assert (got / path.name).read_bytes() == path.read_bytes(), path.name


AVGMAX_SIZES = (*range(1, 18), BASELINE_SET_CAP)


@st.composite
def avgmax_pair(draw):
    """A source and a target table whose global sets hold every size of
    AVGMAX_SIZES and further sets of a few small sizes and of the cap, an
    empty set and a word without a set, drawn from one `row_pool`, so that
    the two tables share rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = row_pool(rng, draw(st.sampled_from((0, 1, 2, 3, 8))))
    tables = []
    for language in ("s", "t"):
        sizes = [0, *AVGMAX_SIZES,
                 *rng.choice((1, 2, 3, BASELINE_SET_CAP), size=int(rng.integers(1, 9))).tolist()]
        rng.shuffle(sizes)
        words = [f"{language}{i:02d}" for i in range(len(sizes) + 1)]
        glob = {w: draw_set(rng, pool, size) for w, size in zip(words, sizes)}
        tables.append(build_table(language, {w: np.ones((1, 1)) for w in words}, {}, glob))
    return tables


@given(avgmax_pair(), st.sampled_from((1, 3, 128)), st.sampled_from((1, 7, 64, 4096)))
@settings(max_examples=150, deadline=None)
def test_cnn_avgmax_gives_the_bytes_of_the_per_word_code(tables, chunk, run):
    """The cnn_avgmax matrix in both directions, `chunk` source image rows
    per product, with its set-size blocks cut at about `run` values, so
    that the sets of one size split across blocks."""
    with (mock.patch.object(induction, "AVGMAX_CHUNK", chunk),
          mock.patch.object(induction, "RUN_VALUES", run)):
        for source, target in (tables, tables[::-1]):
            got = cnn_avgmax_scores(source, target)
            assert got.tobytes() == cnn_avgmax_by_word(source, target).tobytes()
