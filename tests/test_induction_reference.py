"""The matrix rankers against a brute-force per-pair oracle.

The oracle scores one (source, target) pair at a time with scalar Python
arithmetic: cosines of the raw vectors, mean-then-unit for the visual
vectors and cnn_mean, and a double loop for cnn_avgmax. Features are
small integers, so a vector or a set mean is either exactly zero or far
from the zero-norm threshold, and the oracle's "unusable" matches the
package's without rounding doubt.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lexipivot.induction import (
    BOTTOM_SCORE,
    RANKING_WIDTH,
    build_table,
    cnn_avgmax_rank,
    cnn_mean_rank,
    fused_rank,
    linguistic_rank,
    unit,
    visual_rank,
    write_rankings,
)
from lexipivot.pipeline import compute_rankings

from helpers import ranked_pairs

METHODS = ("linguistic", "visual", "fused", "cnn_mean", "cnn_avgmax")
DIM = 3


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def norm(a):
    return math.sqrt(dot(a, a))


def cosine(a, b):
    """0 when either side is a zero vector, as for zero image rows."""
    na, nb = norm(a), norm(b)
    return 0.0 if na == 0.0 or nb == 0.0 else dot(a, b) / (na * nb)


def set_mean(rows):
    """None for an empty set or a zero mean."""
    if not rows:
        return None
    mean = [sum(column) / len(rows) for column in zip(*rows)]
    return mean if any(mean) else None


class Unscorable(Exception):
    pass


def oracle_pair(method, src, tgt, x, y):
    """(score, fell back) of one pair whose source is scorable."""
    if method in ("linguistic", "fused"):
        s_l = cosine(src["ling"][x], tgt["ling"][y])
        if method == "linguistic":
            return s_l, False
        sv, tv = set_mean(src["vis"].get(x, [])), set_mean(tgt["vis"].get(y, []))
        if sv is None or tv is None:
            return s_l, True
        return s_l + cosine(sv, tv), False
    if method in ("visual", "cnn_mean"):
        tm = set_mean((tgt["vis"] if method == "visual" else tgt["glob"]).get(y, []))
        if tm is None:
            return BOTTOM_SCORE, True
        return cosine(source_set_mean(method, src, x), tm), False
    srows, trows = src["glob"][x], tgt["glob"].get(y, [])
    if not trows:
        return BOTTOM_SCORE, True
    best = [max(cosine(s, t) for t in trows) for s in srows]
    return sum(best) / len(best), False


def source_set_mean(method, src, x):
    return set_mean((src["vis"] if method == "visual" else src["glob"]).get(x, []))


def scorable(method, src, x):
    if method in ("visual", "cnn_mean"):
        return source_set_mean(method, src, x) is not None
    return method != "cnn_avgmax" or bool(src["glob"].get(x))


def oracle_rank(method, src, tgt, x):
    """({target: score}, fallback pairs) over every target word; Unscorable
    for a source the method cannot score."""
    if not scorable(method, src, x):
        raise Unscorable
    scores, fallback = {}, 0
    for y in sorted(tgt["ling"]):
        scores[y], fell_back = oracle_pair(method, src, tgt, x, y)
        fallback += fell_back
    return scores, fallback


# ---------------------------------------------------------------------------
# generated tables
# ---------------------------------------------------------------------------


VALUE = st.integers(-2, 2).map(float)
VECTOR = st.lists(VALUE, min_size=DIM, max_size=DIM)


@st.composite
def raw_language(draw, prefix):
    """Linguistic vectors for every word; visual and global sets for some,
    empty, singleton or larger, with zero rows and rows repeated from a
    small pool."""
    words = [f"{prefix}{i}" for i in range(draw(st.integers(1, 5)))]
    pool = draw(st.lists(VECTOR, min_size=1, max_size=3))
    row = st.one_of(st.sampled_from(pool), VECTOR)
    ling = {w: draw(VECTOR.filter(any)) for w in words}
    vis = {w: draw(st.lists(row, max_size=3)) for w in words if draw(st.booleans())}
    glob = {w: draw(st.lists(row, max_size=4)) for w in words if draw(st.booleans())}
    return {"ling": ling, "vis": vis, "glob": glob}


@st.composite
def tied_language(draw, prefix, max_words):
    """Up to `max_words` words, each a copy of one of a few profiles. Words
    of one profile share every vector and set, so they tie under every
    method; a profile without a visual or global set (or with a zero-mean
    one) scores BOTTOM_SCORE where the method needs that set."""
    profiles = draw(st.lists(st.fixed_dictionaries({
        "ling": VECTOR.filter(any),
        "vis": st.none() | st.lists(VECTOR, min_size=1, max_size=2),
        "glob": st.none() | st.lists(VECTOR, min_size=1, max_size=3)}),
        min_size=1, max_size=3))
    n = draw(st.integers(1, max_words))
    raw = {"ling": {}, "vis": {}, "glob": {}}
    for i in range(n):
        word, profile = f"{prefix}{i}", draw(st.sampled_from(profiles))
        raw["ling"][word] = profile["ling"]
        for kind in ("vis", "glob"):
            if profile[kind] is not None:
                raw[kind][word] = profile[kind]
    return raw


def as_rows(rows):
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), DIM)


def table(language, raw):
    return build_table(language,
                       {w: unit(np.asarray(v)) for w, v in raw["ling"].items()},
                       {w: as_rows(rows) for w, rows in raw["vis"].items()},
                       {w: as_rows(rows) for w, rows in raw["glob"].items()})


RANKERS = {"linguistic": linguistic_rank, "visual": visual_rank, "fused": fused_rank,
           "cnn_mean": cnn_mean_rank, "cnn_avgmax": cnn_avgmax_rank}


def assert_matches_oracle(ranking, scores, fallback):
    pairs = ranked_pairs(ranking)
    got = dict(pairs)
    assert len(got) == len(pairs) and sorted(got) == sorted(scores)
    for word, value in scores.items():
        assert abs(got[word] - value) <= 1e-12, (ranking.method, word, got[word], value)
    assert ranking.fallback_pairs == fallback
    # the documented order: descending score, ties in word order
    assert pairs == sorted(pairs, key=lambda kv: (-kv[1], kv[0]))


@given(raw_language("s"), raw_language("t"))
@settings(max_examples=200, deadline=None)
def test_rankers_match_per_pair_oracle(src, tgt):
    src_table, tgt_table = table("s", src), table("t", tgt)
    for method in METHODS:
        for x in sorted(src["ling"]):
            try:
                scores, fallback = oracle_rank(method, src, tgt, x)
            except Unscorable:  # compute_rankings never asks (the test below)
                continue
            assert_matches_oracle(RANKERS[method](x, src_table, tgt_table), scores, fallback)


@given(raw_language("s"), raw_language("t"))
@settings(max_examples=100, deadline=None)
def test_compute_rankings_skips_like_the_oracle(src, tgt):
    tables = {"s": table("s", src), "t": table("t", tgt)}
    computed = compute_rankings(tables, "s", "t")
    assert sorted(computed) == sorted(METHODS)
    for method in METHODS:
        expected = {}
        for x in sorted(src["ling"]):
            try:
                expected[x] = oracle_rank(method, src, tgt, x)
            except Unscorable:
                expected[x] = None
        # every method skips exactly the sources the oracle cannot score
        rankings = computed[method]
        assert sorted(rankings) == sorted(x for x, e in expected.items() if e is not None)
        for x, e in expected.items():
            if e is not None:
                assert_matches_oracle(rankings[x], *e)


@given(tied_language("s", 3), tied_language("t", 2 * RANKING_WIDTH))
@settings(max_examples=100, deadline=None)
def test_ties_and_bottom_scores_follow_a_brute_force_sort(src, tgt):
    """Positions, pair counts and rankings.tsv lines of every method agree with
    a plain sort of each ranking's (word, score) pairs by (-score, word)."""
    tables = {"s": table("s", src), "t": table("t", tgt)}
    targets = tables["t"].words
    computed = compute_rankings(tables, "s", "t")
    expected_lines = []
    for method in sorted(computed):
        for x in sorted(computed[method]):
            ranking = computed[method][x]
            assert_matches_oracle(ranking, *oracle_rank(method, src, tgt, x))
            assert len(ranking.items) == len(targets)
            score = {targets[k]: s for k, s in zip(ranking.order.tolist(),
                                                   ranking.scores.tolist())}
            assert sorted(score) == targets
            expected = sorted(targets, key=lambda w: (-score[w], w))
            assert [ranking.rank_of(w) for w in expected] == list(range(1, len(targets) + 1))
            assert ranking.rank_of(x) is None
            cells = ",".join(f"{w}:{score[w]:.6f}" for w in expected[:RANKING_WIDTH])
            expected_lines.append(f"{x}\t{method}\t{cells}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rankings.tsv"
        write_rankings(path, computed)
        assert path.read_text(encoding="utf-8").splitlines() == expected_lines
