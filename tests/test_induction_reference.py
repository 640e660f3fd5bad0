"""The matrix rankers against a brute-force per-pair oracle.

The oracle scores one (source, target) pair at a time with scalar Python
arithmetic: cosines of the raw vectors, mean-then-unit for the visual
vectors and cnn_mean, and a double loop for cnn_avgmax. Features are
small integers, so a vector or a set mean is either exactly zero or far
from the zero-norm threshold, and the oracle's "unusable" matches the
package's without rounding doubt.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lexipivot.induction import (
    BOTTOM_SCORE,
    build_table,
    cnn_avgmax_rank,
    cnn_mean_rank,
    fused_rank,
    linguistic_rank,
    unit,
    visual_rank,
)
from lexipivot.pipeline import compute_rankings

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
    got = dict(ranking.items)
    assert sorted(got) == sorted(scores)
    for word, value in scores.items():
        assert abs(got[word] - value) <= 1e-12, (ranking.method, word, got[word], value)
    assert ranking.fallback_pairs == fallback
    # the documented order: descending score, ties in word order
    assert ranking.items == sorted(ranking.items, key=lambda kv: (-kv[1], kv[0]))


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
