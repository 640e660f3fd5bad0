"""The score matrices and rankers against a brute-force per-pair oracle.

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
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexipivot import induction, pipeline
from lexipivot.corpus import GroundTruthLexicon
from lexipivot.induction import (
    BOTTOM_SCORE,
    GOLD_OUTSIDE,
    RANKING_WIDTH,
    build_table,
    gold_ranks,
    unit,
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
    """Each method's score matrix, its heads and fallback counts, one row
    per scorable source word paired with its head by its `<method>_rank`."""
    src_table, tgt_table = table("s", src), table("t", tgt)
    for method in METHODS:
        score, rank = (getattr(induction, f"{method}_{kind}") for kind in ("scores", "rank"))
        matrix = None   # scored once a source word is scorable, as compute_rankings does
        for x in sorted(src["ling"]):
            try:
                scores, fallback = oracle_rank(method, src, tgt, x)
            except Unscorable:  # compute_rankings never asks (the test below)
                continue
            if matrix is None:
                matrix = score(src_table, tgt_table)
                heads = induction.ranking_heads(matrix)
                fallbacks = induction.fallback_counts(method, src_table, tgt_table)
            i = src_table.row(x)
            ranking = rank(x, tgt_table, matrix[i], heads[i], int(fallbacks[i]))
            assert_matches_oracle(ranking, scores, fallback)


@given(raw_language("s"), raw_language("t"))
@settings(max_examples=100, deadline=None)
def test_avgmax_chunks_match_the_oracle(src, tgt):
    """cnn_avgmax taken 3 distinct source image rows per product, so that
    most tables need several chunks and a last, shorter one."""
    tables = {"s": table("s", src), "t": table("t", tgt)}
    with mock.patch.object(induction, "AVGMAX_CHUNK", 3):
        computed = compute_rankings(tables, "s", "t")["cnn_avgmax"]
    for x in sorted(src["ling"]):
        if scorable("cnn_avgmax", src, x):
            assert_matches_oracle(computed[x], *oracle_rank("cnn_avgmax", src, tgt, x))
        else:
            assert x not in computed


@given(raw_language("s"), raw_language("t"))
@settings(max_examples=50, deadline=None)
def test_one_rank_call_per_scorable_source_word(src, tgt):
    """`compute_rankings` calls each `pipeline.<method>_rank` once per source
    word the method can score, and each ranking covers every target word."""
    tables = {"s": table("s", src), "t": table("t", tgt)}
    calls = {method: [] for method in METHODS}

    def counting(method, rank):
        def wrapper(*args):
            result = rank(*args)
            calls[method].append((args[0], len(result.items)))
            return result
        return wrapper

    with mock.patch.multiple(pipeline, **{
            f"{m}_rank": counting(m, getattr(pipeline, f"{m}_rank")) for m in METHODS}):
        compute_rankings(tables, "s", "t")
    for method in METHODS:
        expected = [(x, len(tgt["ling"])) for x in sorted(src["ling"])
                    if scorable(method, src, x)]
        assert calls[method] == expected, method


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
    """Heads, gold ranks at every position, pair counts and rankings.tsv
    lines of every method agree with a plain sort of each ranking's (word,
    score) pairs by (-score, word)."""
    tables = {"s": table("s", src), "t": table("t", tgt)}
    targets = tables["t"].words
    computed = compute_rankings(tables, "s", "t")
    expected_lines = []
    for method in sorted(computed):
        for x in sorted(computed[method]):
            ranking = computed[method][x]
            assert_matches_oracle(ranking, *oracle_rank(method, src, tgt, x))
            assert len(ranking.items) == len(targets)
            score = dict(zip(targets, ranking.row.tolist()))
            expected = sorted(targets, key=lambda w: (-score[w], w))
            assert [targets[k] for k in ranking.head.tolist()] == expected[:RANKING_WIDTH]
            for position in range(len(expected)):   # the first of the gold targets
                lexicon = GroundTruthLexicon("s", "t", {x: set(expected[position:])})
                assert gold_ranks({x: ranking}, lexicon) == {x: position + 1}
            lexicon = GroundTruthLexicon("s", "t", {x: {x}})
            assert gold_ranks({x: ranking}, lexicon) == {x: GOLD_OUTSIDE}
            cells = ",".join(f"{w}:{score[w]:.6f}" for w in expected[:RANKING_WIDTH])
            expected_lines.append(f"{x}\t{method}\t{cells}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rankings.tsv"
        write_rankings(path, computed)
        assert path.read_text(encoding="utf-8").splitlines() == expected_lines


def profiles(words, ling, vis=None, glob=None):
    """A raw language whose `words` all share one linguistic vector and, when
    given, one visual and one global set."""
    raw = {"ling": {w: ling for w in words}, "vis": {}, "glob": {}}
    for kind, rows in (("vis", vis), ("glob", glob)):
        if rows is not None:
            raw[kind] = {w: rows for w in words}
    return raw


def merged(*raws):
    return {kind: {w: v for raw in raws for w, v in raw[kind].items()}
            for kind in ("ling", "vis", "glob")}


ONE, OTHER = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
SOURCE = profiles(["s0"], ONE, [ONE], [ONE])


@given(tied_language("s", 3), tied_language("t", 3 * RANKING_WIDTH))
@example(SOURCE, profiles([f"t{i:02d}" for i in range(45)], ONE, [ONE], [ONE]))  # all tied
@example(SOURCE, profiles(["t0"], OTHER, [OTHER], [OTHER]))                       # T = 1
@example(SOURCE, merged(profiles([f"t{i}" for i in range(0, 7, 2)], ONE, [ONE]),  # T < 20
                        profiles([f"t{i}" for i in range(1, 7, 2)], OTHER)))
@example(SOURCE, merged(                        # 15 ahead, then 25 tied across place 20
    profiles([f"t{i:02d}" for i in range(0, 30, 2)], ONE, [ONE], [ONE]),
    profiles([f"t{i:02d}" for i in range(1, 30, 2)] + [f"t{i}" for i in range(30, 40)],
             OTHER, [OTHER], [OTHER])))
@example(profiles(["s0", "s1"], ONE),           # no source has a visual or global set
         profiles([f"t{i:02d}" for i in range(25)], ONE, [ONE], [ONE]))
@settings(max_examples=100, deadline=None)
def test_selection_matches_a_python_sort_at_the_boundary(src, tgt):
    """Every method's head is the first RANKING_WIDTH places of a Python
    sort of its row by (-score, word), and `gold_ranks` gives that sort's
    first gold position wherever the gold targets start, with ties across
    the last place of the head, every target tied, fewer targets than
    RANKING_WIDTH, one target, and methods that no source word can use."""
    tables = {"s": table("s", src), "t": table("t", tgt)}
    computed = compute_rankings(tables, "s", "t")
    for method in METHODS:
        assert sorted(computed[method]) == [x for x in sorted(src["ling"])
                                            if scorable(method, src, x)]
        for x, ranking in computed[method].items():
            pairs = sorted(zip(tables["t"].words, ranking.row.tolist()),
                           key=lambda kv: (-kv[1], kv[0]))
            assert ranking.top(RANKING_WIDTH) == pairs[:RANKING_WIDTH], method
            assert_matches_oracle(ranking, *oracle_rank(method, src, tgt, x))
            expected = [w for w, _ in pairs]
            for position, word in enumerate(expected):
                for gold in ({word}, set(expected[position:]), {word, *expected[position::3]}):
                    lexicon = GroundTruthLexicon("s", "t", {x: gold})
                    assert gold_ranks({x: ranking}, lexicon) == {x: position + 1}


@given(raw_language("s"), raw_language("t"))
@example(profiles(["s0"], ONE), profiles(["t0", "t1"], OTHER, [ONE]))   # source rows 0 wide
@example(profiles(["s0"], ONE, [ONE]), profiles(["t0"], OTHER))         # target rows 0 wide
@example(profiles(["s0"], ONE), profiles(["t0"], OTHER))                # both 0 wide
@settings(max_examples=100, deadline=None)
def test_fused_from_the_held_matrices_equals_standalone_fused_scores(src, tgt):
    """The fused rows `compute_rankings` sums from its linguistic and visual
    matrices are bit for bit those of `fused_scores` taking both products
    itself, for sources and targets with and without a visual vector."""
    tables = {"s": table("s", src), "t": table("t", tgt)}
    rankings = compute_rankings(tables, "s", "t")["fused"]
    held = np.array([rankings[x].row for x in tables["s"].words])
    assert np.array_equal(held, induction.fused_scores(tables["s"], tables["t"]))
