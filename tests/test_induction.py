import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexipivot import induction, localization
from lexipivot.config import INDUCTION_METHODS
from lexipivot.corpus import GroundTruthLexicon
from lexipivot.corpus.vocab import RESERVED
from lexipivot.errors import EmptyResultError
from lexipivot.induction import (
    BOTTOM_SCORE,
    GOLD_OUTSIDE,
    UNRANKED,
    EvalReport,
    build_table,
    collect_global_feature_sets,
    evaluate,
    gold_ranks,
    mean_unit,
    pos_breakdown,
    unit,
    write_rankings,
    write_report_csv,
    write_report_json,
)
from lexipivot.localization import encode_images
from lexipivot.numerics import no_grad
from lexipivot.pipeline import compute_rankings
from lexipivot.seeding import substream

from conftest import build_model, indexed
from helpers import rank_word, ranked_pairs, ranking_from_pairs


def table_from_raw(language, raw_linguistic, raw_visual_sets=None, global_sets=None):
    ling = {w: unit(np.asarray(v, dtype=np.float64)) for w, v in raw_linguistic.items()}
    return build_table(language, ling, raw_visual_sets or {}, global_sets or {})


def sets_table(language, global_sets):
    """A table of words with global image sets and no visual vectors, for the
    CNN baselines."""
    return table_from_raw(language, {w: [1.0] for w in global_sets}, None,
                          {w: np.asarray(rows, dtype=np.float64)
                           for w, rows in global_sets.items()})


def score(method, x, source, target, y):
    return dict(ranked_pairs(rank_word(method, x, source, target)))[y]


def brute_cosine(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestSimilarities:
    def test_identical_vectors(self):
        src = table_from_raw("s", {"x": [1.0, 2.0, 3.0]})
        tgt = table_from_raw("t", {"y": [1.0, 2.0, 3.0]})
        assert abs(score("linguistic", "x", src, tgt, "y") - 1.0) < 1e-12

    def test_orthogonal_vectors(self):
        src = table_from_raw("s", {"x": [1.0, 0.0]})
        tgt = table_from_raw("t", {"y": [0.0, 1.0]})
        assert abs(score("linguistic", "x", src, tgt, "y")) < 1e-12

    def test_linguistic_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=6), rng.normal(size=6)
            src = table_from_raw("s", {"x": a})
            tgt = table_from_raw("t", {"y": b})
            assert abs(score("linguistic", "x", src, tgt, "y") - brute_cosine(a, b)) < 1e-9

    def test_missing_word(self):
        src = table_from_raw("s", {"x": [1.0, 0.0]})
        with pytest.raises(KeyError):
            src.row("zz")
        for method in INDUCTION_METHODS:
            with pytest.raises(KeyError):
                rank_word(method, "zz", src, src)

    def test_visual_singleton_identical(self):
        v = np.array([0.2, -0.4, 0.9])
        src = table_from_raw("s", {"x": [1, 0, 0]}, {"x": [v]})
        tgt = table_from_raw("t", {"y": [1, 0, 0]}, {"y": [v.copy()]})
        assert abs(score("visual", "x", src, tgt, "y") - 1.0) < 1e-12

    def test_opposed_features_degenerate(self):
        v = np.array([0.5, 0.5])
        src = table_from_raw("s", {"x": [1, 0]}, {"x": [v, -v]})
        tgt = table_from_raw("t", {"y": [1, 0]}, {"y": [v]})
        assert not src.has_visual[src.row("x")]
        assert "x" not in compute_rankings({"s": src, "t": tgt}, "s", "t")["visual"]
        # as a target the degenerate word ranks last and counts as a fallback
        ranking = rank_word("visual", "y", tgt, src)
        assert ranked_pairs(ranking) == [("x", BOTTOM_SCORE)] and ranking.fallback_pairs == 1

    def test_visual_matches_brute_force_mean_then_cosine(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sa = [rng.normal(size=5) for _ in range(rng.integers(1, 6))]
            sb = [rng.normal(size=5) for _ in range(rng.integers(1, 6))]
            src = table_from_raw("s", {"x": [1, 0, 0, 0, 0]}, {"x": sa})
            tgt = table_from_raw("t", {"y": [1, 0, 0, 0, 0]}, {"y": sb})
            expected = brute_cosine(np.mean(sa, axis=0), np.mean(sb, axis=0))
            assert abs(score("visual", "x", src, tgt, "y") - expected) < 1e-9

    def test_aggregate_empty_is_none(self):
        assert mean_unit(np.zeros((0, 3))) is None
        table = table_from_raw("s", {"x": [1, 0, 0]}, {"x": np.zeros((0, 3))})
        assert not table.has_visual.any()


class TestFusedRank:
    def two_tables(self, seed=2, n=6, d=8, with_visual=True):
        rng = np.random.default_rng(seed)
        src_words = [f"s{i}" for i in range(n)]
        tgt_words = [f"t{i}" for i in range(n)]
        src = table_from_raw(
            "s", {w: rng.normal(size=d) for w in src_words},
            {w: [rng.normal(size=d)] for w in src_words} if with_visual else {})
        tgt = table_from_raw(
            "t", {w: rng.normal(size=d) for w in tgt_words},
            {w: [rng.normal(size=d)] for w in tgt_words} if with_visual else {})
        return src, tgt

    def test_vocab_of_one(self):
        src, tgt = self.two_tables(n=1)
        ranking = rank_word("fused", "s0", src, tgt)
        assert [w for w, _ in ranked_pairs(ranking)] == ["t0"]

    def test_zero_visual_term_equals_linguistic_order(self):
        # orthogonal visual vectors make every s_i exactly zero
        rng = np.random.default_rng(3)
        d = 12
        src_ling = {f"s{i}": rng.normal(size=4) for i in range(4)}
        tgt_ling = {f"t{i}": rng.normal(size=4) for i in range(4)}
        src = table_from_raw("s", src_ling, {w: [np.eye(d)[i]] for i, w in enumerate(src_ling)})
        tgt = table_from_raw("t", tgt_ling,
                             {w: [np.eye(d)[i + 6]] for i, w in enumerate(tgt_ling)})
        for w in src_ling:
            fused = rank_word("fused", w, src, tgt)
            ling = rank_word("linguistic", w, src, tgt)
            assert [c for c, _ in ranked_pairs(fused)] == [c for c, _ in ranked_pairs(ling)]

    def test_fallback_uses_linguistic_alone(self):
        src, tgt = self.two_tables(with_visual=False)
        ranking = rank_word("fused", "s0", src, tgt)
        ling = rank_word("linguistic", "s0", src, tgt)
        assert [c for c, _ in ranked_pairs(ranking)] == [c for c, _ in ranked_pairs(ling)]
        for (w1, sc1), (w2, sc2) in zip(ranked_pairs(ranking), ranked_pairs(ling)):
            assert abs(sc1 - sc2) < 1e-12  # nothing subtracted
        assert ranking.fallback_pairs == len(tgt.words)

    def test_scores_non_increasing_and_full_coverage(self):
        src, tgt = self.two_tables()
        ranking = rank_word("fused", "s1", src, tgt)
        scores = [s for _, s in ranked_pairs(ranking)]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert sorted(w for w, _ in ranked_pairs(ranking)) == tgt.words

    def test_tie_break_lexicographic(self):
        src = table_from_raw("s", {"x": [1.0, 0.0]})
        tgt = table_from_raw("t", {"zz": [1.0, 0.0], "aa": [1.0, 0.0]})
        ranking = rank_word("fused", "x", src, tgt)
        assert [w for w, _ in ranked_pairs(ranking)] == ["aa", "zz"]

    def test_scale_invariance_of_order(self):
        rng = np.random.default_rng(4)
        d = 8
        src_raw = {f"s{i}": rng.normal(size=d) for i in range(5)}
        tgt_raw = {f"t{i}": rng.normal(size=d) for i in range(5)}
        vis_src = {w: [rng.normal(size=d)] for w in src_raw}
        vis_tgt = {w: [rng.normal(size=d)] for w in tgt_raw}
        plain_src = table_from_raw("s", src_raw, vis_src)
        plain_tgt = table_from_raw("t", tgt_raw, vis_tgt)
        scaled_src = table_from_raw("s", {w: 7.3 * v for w, v in src_raw.items()},
                                    {w: [5.1 * f for f in fs] for w, fs in vis_src.items()})
        for w in src_raw:
            a = rank_word("fused", w, plain_src, plain_tgt)
            b = rank_word("fused", w, scaled_src, plain_tgt)
            assert [c for c, _ in ranked_pairs(a)] == [c for c, _ in ranked_pairs(b)]


class TestBaselines:
    def test_cnn_mean_single_region_case_matches_visual_similarity(self):
        # with K=1 images the global mean equals the sole region feature
        rng = np.random.default_rng(5)
        sa = [rng.normal(size=4) for _ in range(3)]
        sb = [rng.normal(size=4) for _ in range(2)]
        ranking = rank_word("cnn_mean", "x", sets_table("s", {"x": sa}),
                            sets_table("t", {"y": sb}))
        src = table_from_raw("s", {"x": [1, 0, 0, 0]}, {"x": sa})
        tgt = table_from_raw("t", {"y": [1, 0, 0, 0]}, {"y": sb})
        assert abs(ranked_pairs(ranking)[0][1] - score("visual", "x", src, tgt, "y")) < 1e-12

    def test_cnn_mean_identical_sets(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(4, 5))
        ranking = rank_word("cnn_mean", "x", sets_table("s", {"x": rows}),
                            sets_table("t", {"y": rows.copy()}))
        assert abs(ranked_pairs(ranking)[0][1] - 1.0) < 1e-12

    def test_avgmax_singletons_reduce_to_cosine(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=5), rng.normal(size=5)
        ranking = rank_word("cnn_avgmax", "x", sets_table("s", {"x": a[None]}),
                            sets_table("t", {"y": b[None]}))
        assert abs(ranked_pairs(ranking)[0][1] - brute_cosine(a, b)) < 1e-12

    def test_avgmax_subset_scores_one(self):
        rng = np.random.default_rng(8)
        tgt = rng.normal(size=(5, 4))
        ranking = rank_word("cnn_avgmax", "x", sets_table("s", {"x": tgt[:3].copy()}),
                            sets_table("t", {"y": tgt}))
        assert abs(ranked_pairs(ranking)[0][1] - 1.0) < 1e-12

    def test_avgmax_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(9)
        src = {"x": rng.normal(size=(3, 6))}
        tgt = {"y": rng.normal(size=(4, 6)), "z": rng.normal(size=(2, 6))}
        ranking = rank_word("cnn_avgmax", "x", sets_table("s", src), sets_table("t", tgt))
        for word, value in ranked_pairs(ranking):
            best = [max(brute_cosine(s, t) for t in tgt[word]) for s in src["x"]]
            assert abs(value - float(np.mean(best))) < 1e-9

    def test_targets_without_a_usable_set_rank_last(self):
        # "b" has no image set; the mean of "c"'s set is zero, but its rows
        # still score under avgmax
        v = np.array([0.5, -0.25, 1.0])
        src = sets_table("s", {"x": [v]})
        tgt = table_from_raw("t", {w: [1.0] for w in "abc"}, None,
                             {"a": [v], "c": [v, -v]})
        mean = rank_word("cnn_mean", "x", src, tgt)
        assert [w for w, _ in ranked_pairs(mean)] == ["a", "b", "c"]
        assert abs(ranked_pairs(mean)[0][1] - 1.0) < 1e-12
        assert ranked_pairs(mean)[1][1] == ranked_pairs(mean)[2][1] == BOTTOM_SCORE
        assert mean.fallback_pairs == 2
        avgmax = rank_word("cnn_avgmax", "x", src, tgt)
        assert [w for w, _ in ranked_pairs(avgmax)] == ["a", "c", "b"]
        assert ranked_pairs(avgmax)[0][1] == ranked_pairs(avgmax)[1][1]
        assert ranked_pairs(avgmax)[2][1] == BOTTOM_SCORE and avgmax.fallback_pairs == 1

    def test_sets_of_words_outside_the_table_are_dropped(self):
        rng = np.random.default_rng(12)
        table = table_from_raw("s", {"x": [1.0, 0.0]},
                               {w: rng.normal(size=(2, 3)) for w in ("x", "extra")},
                               {"x": rng.normal(size=(3, 4)), "extra": rng.normal(size=(2, 4))})
        assert table.words == ["x"]
        assert table.visual.shape == (1, 3) and table.global_mean.shape == (1, 4)
        assert table.global_offsets.tolist() == [0, 3] and len(table.global_rows) == 3

    def test_empty_source_set(self):
        src = sets_table("s", {"x": np.zeros((0, 4))})
        tgt = sets_table("t", {"y": np.ones((1, 4))})
        assert not src.global_mean_valid[0] and src.global_offsets.tolist() == [0, 0]
        rankings = compute_rankings({"s": src, "t": tgt}, "s", "t")
        assert "x" not in rankings["cnn_mean"] and "x" not in rankings["cnn_avgmax"]


def test_compute_rankings_memory_is_its_arrays():
    """A ranking holds its scores as a view of its method's score matrix,
    one float per scored pair, beside the target rows of its first
    RANKING_WIDTH places, and nothing per pair besides: the peak traced
    allocation of ranking 300 words against 300 stays under 3x the score
    matrices' bytes (a row order and its sorted scores per ranking, as kept
    before, took 2x them on their own)."""
    rng = np.random.default_rng(14)

    def language(prefix):
        words = [f"{prefix}{i:03d}" for i in range(300)]
        return table_from_raw(prefix, {w: rng.normal(size=8) for w in words},
                              {w: [rng.normal(size=8)] for w in words},
                              {w: rng.normal(size=(2, 8)) for w in words})

    tables = {"s": language("s"), "t": language("t")}
    tracemalloc.start()
    try:
        methods = compute_rankings(tables, "s", "t")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = sum(len(r.items) for rankings in methods.values() for r in rankings.values())
    assert pairs == len(INDUCTION_METHODS) * 300 * 300
    array_bytes = pairs * np.dtype(np.float64).itemsize
    assert peak < 3 * array_bytes, (peak, array_bytes)

class TestGlobalFeatureSets:
    @pytest.mark.parametrize("cap", [None, 3])
    def test_batched_encode_matches_per_image_encode(self, tiny_bundle, monkeypatch, cap):
        """None keeps `BASELINE_SET_CAP`; 3 cuts the sets of the frequent words."""
        lang = tiny_bundle.config.languages[0]
        model = build_model(tiny_bundle, dtype=np.float64)
        examples, vocab = indexed(tiny_bundle)[lang], tiny_bundle.vocabs[lang]
        monkeypatch.setattr(localization, "ROW_CAP", 5)   # 24 images: chunks of 5, last of 4
        if cap is not None:
            monkeypatch.setattr(induction, "BASELINE_SET_CAP", cap)
        got = collect_global_feature_sets(
            examples, encode_images(model, examples, tiny_bundle.regions[lang]), vocab, seed=9)
        want = {}
        with no_grad():
            for ex in examples:
                image = model.encode(tiny_bundle.regions[lang][ex.image_row][None]).data[0]
                for t in range(1, len(ex.tokens) - 1):
                    if ex.tokens[t] >= len(RESERVED):
                        want.setdefault(vocab.word(ex.tokens[t]), []).append(image.mean(axis=0))
        limit = induction.BASELINE_SET_CAP
        assert any(len(rows) > limit for rows in want.values()) == (cap is not None)
        for word, rows in want.items():
            if len(rows) > limit:
                rng = substream(9, f"subsample-global:{lang}:{word}")
                want[word] = [rows[i] for i in sorted(rng.choice(len(rows), size=limit,
                                                                 replace=False))]
        assert got.keys() == want.keys()
        for word, rows in got.items():
            np.testing.assert_allclose(rows, np.array(want[word]), rtol=0, atol=1e-12)


class TestTies:
    """Identical candidates score bit-identically and come out in word order,
    wherever their rows sit."""

    @pytest.mark.parametrize("method", sorted(INDUCTION_METHODS))
    @pytest.mark.parametrize("positions", [(0, 1), (0, 29), (13, 40), (38, 41)])
    def test_duplicates_tie_in_word_order(self, method, positions):
        rng = np.random.default_rng(sum(positions))
        d, n = 24, 42
        # word order differs from row-position order only through the names
        words = [f"w{(5 * i) % n:02d}" for i in range(n)]
        raw = {w: rng.normal(size=d) for w in words}
        vis = {w: [rng.normal(size=d)] for w in words}
        sets = {w: rng.normal(size=(int(rng.integers(1, 9)), d)) for w in words}
        first, second = (sorted(words)[p] for p in positions)
        raw[second], vis[second] = raw[first].copy(), [vis[first][0].copy()]
        # an identical image set, with members reordered and repeated
        sets[second] = np.concatenate([sets[first][::-1], sets[first][:2]])
        if method == "cnn_mean":
            sets[second] = sets[first].copy()   # a mean depends on member order
        tgt = table_from_raw("t", raw, vis, sets)
        src = table_from_raw("s", {"x": rng.normal(size=d)}, {"x": [rng.normal(size=d)]},
                             {"x": rng.normal(size=(5, d))})
        items = ranked_pairs(rank_word(method, "x", src, tgt))
        scores = dict(items)
        assert scores[first] == scores[second]
        order = [w for w, _ in items]
        assert order.index(first) + 1 == order.index(second)

    @pytest.mark.parametrize("seed", range(4))
    def test_avgmax_ties_across_set_sizes(self, seed):
        # sets of 3 to 100 members drawn from the same three image rows, among
        # unrelated sets; a product per target set would round differently
        # with the set's size and score some of them apart
        rng = np.random.default_rng(seed)
        d = 64
        pool = rng.normal(size=(3, d))
        tied = {f"t{k:02d}": rng.permutation(pool[np.r_[0:3, rng.integers(0, 3, size=k)]])
                for k in range(98)}
        others = {f"{c}{k}": rng.normal(size=(k + 1, d)) for k in range(5) for c in "au"}
        src = sets_table("s", {"x": rng.normal(size=(40, d))})
        items = ranked_pairs(rank_word("cnn_avgmax", "x", src,
                                       sets_table("t", {**tied, **others})))
        assert len({value for word, value in items if word in tied}) == 1
        order = [w for w, _ in items if w in tied]
        start = [w for w, _ in items].index(order[0])
        assert order == sorted(tied) == [w for w, _ in items][start:start + len(tied)]

    def test_order_is_stable_sort_on_score(self):
        """The head and every target's gold rank follow a stable sort on the
        score, over 30 targets in 4 tied groups."""
        rng = np.random.default_rng(13)
        values = rng.integers(0, 4, size=30).astype(float)
        tgt = table_from_raw("t", {f"t{i:02d}": [v, 1.0] for i, v in enumerate(values)})
        src = table_from_raw("s", {"x": [1.0, 0.0]})
        ranking = rank_word("linguistic", "x", src, tgt)
        items = ranked_pairs(ranking)   # checks the head against the sort
        assert items == sorted(items, key=lambda kv: (-kv[1], kv[0]))
        for position, (word, _) in enumerate(items):
            lexicon = GroundTruthLexicon("s", "t", {"x": {word}})
            assert gold_ranks({"x": ranking}, lexicon) == {"x": position + 1}


def brute_force_eval(ordered_candidates, lexicon_entries, ks):
    """Independent scorer: plain loops, list.index ranks, summed in the
    same sorted-source-word order the package uses (exactness needs a
    shared summation order)."""
    rrs = []
    hits = {k: 0 for k in ks}
    for word in sorted(ordered_candidates):
        cands = ordered_candidates[word]
        targets = lexicon_entries.get(word)
        if not targets:
            continue
        positions = [cands.index(t) + 1 for t in targets if t in cands]
        if not positions:
            continue
        best = min(positions)
        rrs.append(1.0 / best)
        for k in ks:
            hits[k] += best <= k
    n = len(rrs)
    return (sum(rrs) / n, {k: hits[k] / n for k in ks}, n)


def as_rankings(ordered_candidates, method="fused"):
    return {
        w: ranking_from_pairs(w, method, [(c, -float(i)) for i, c in enumerate(cands)])
        for w, cands in ordered_candidates.items()
    }


def report_of(cands, lex):
    """The "all" report of candidate lists, through their gold-rank table."""
    rankings = as_rankings(cands)
    return evaluate(gold_ranks(rankings, lex), rankings, "fused")


def pos_reports_of(cands, lex):
    rankings = as_rankings(cands)
    return pos_breakdown(gold_ranks(rankings, lex), rankings, lex, "fused")


class TestEvaluate:
    def test_gold_ranks_first_gold_position_outside_or_unranked(self):
        lex = GroundTruthLexicon("s", "t")
        for source, target in [("first", "d"), ("first", "b"), ("only", "a"),
                               ("last", "d"), ("outside", "zzz"), ("unranked", "a")]:
            lex.add(source, target)
        cands = {w: ["a", "b", "c", "d"] for w in ("first", "only", "last", "outside")}
        assert gold_ranks(as_rankings(cands), lex) == {
            "first": 2, "last": 4, "only": 1, "outside": GOLD_OUTSIDE, "unranked": UNRANKED}
        assert list(gold_ranks(as_rankings(cands), lex)) == sorted(lex.entries)

    def test_all_rank_one(self):
        lex = GroundTruthLexicon("s", "t")
        cands = {}
        for i in range(5):
            lex.add(f"w{i}", f"t{i}")
            cands[f"w{i}"] = [f"t{i}"] + [f"t{j}" for j in range(5) if j != i]
        report = report_of(cands, lex)
        assert report.mrr == 1.0
        assert all(v == 1.0 for v in report.p_at.values())

    def test_hand_computed_two_words(self):
        lex = GroundTruthLexicon("s", "t")
        lex.add("a", "t0")
        lex.add("b", "t3")
        cands = {
            "a": ["t0", "t1", "t2", "t3", "t4"],   # rank 1
            "b": ["t0", "t1", "t2", "t3", "t4"],   # rank 4
        }
        report = report_of(cands, lex)
        assert abs(report.mrr - 0.625) < 1e-12
        assert report.p_at[1] == 0.5
        assert report.p_at[5] == 1.0

    def test_multiple_targets_take_best_rank(self):
        lex = GroundTruthLexicon("s", "t")
        lex.add("a", "t4")
        lex.add("a", "t1")
        cands = {"a": ["t0", "t1", "t2", "t3", "t4"]}
        report = report_of(cands, lex)
        assert abs(report.mrr - 0.5) < 1e-12

    def test_skipped_words_counted(self):
        lex = GroundTruthLexicon("s", "t")
        lex.add("covered", "t0")
        lex.add("missing_ranking", "t1")
        lex.add("oov_target", "zzz")
        cands = {"covered": ["t0", "t1"], "oov_target": ["t0", "t1"]}
        report = report_of(cands, lex)
        assert report.n == 1
        assert (report.unranked_lexicon_words, report.gold_outside_targets) == (1, 1)

    def test_empty_evaluable_raises(self):
        lex = GroundTruthLexicon("s", "t")
        lex.add("w", "t")
        with pytest.raises(EmptyResultError):
            evaluate(gold_ranks({}, lex), {}, "fused")

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n_words = int(rng.integers(1, 40))
        vocab = [f"t{i}" for i in range(int(rng.integers(2, 50)))]
        lex = GroundTruthLexicon("s", "t")
        cands = {}
        for i in range(n_words):
            word = f"w{i}"
            order = list(rng.permutation(vocab))
            cands[word] = order
            n_targets = int(rng.integers(1, min(4, len(vocab) + 1)))
            for t in rng.choice(vocab, size=n_targets, replace=False):
                lex.add(word, str(t))
        report = report_of(cands, lex)
        mrr, p_at, n = brute_force_eval(cands, lex.entries, (1, 5, 10, 20))
        assert report.n == n
        assert report.mrr == mrr
        assert report.p_at == p_at

    def test_permutation_safe(self):
        rng = np.random.default_rng(10)
        vocab = [f"t{i}" for i in range(12)]
        lex = GroundTruthLexicon("s", "t")
        cands = {}
        for i in range(8):
            lex.add(f"w{i}", vocab[int(rng.integers(12))])
            cands[f"w{i}"] = list(rng.permutation(vocab))
        a = report_of(cands, lex)
        shuffled = dict(reversed(list(cands.items())))
        b = report_of(shuffled, lex)
        assert (a.mrr, a.p_at, a.n) == (b.mrr, b.p_at, b.n)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_precision_monotone_in_k(self, seed):
        rng = np.random.default_rng(seed)
        vocab = [f"t{i}" for i in range(30)]
        lex = GroundTruthLexicon("s", "t")
        cands = {}
        for i in range(10):
            lex.add(f"w{i}", vocab[int(rng.integers(30))])
            cands[f"w{i}"] = list(rng.permutation(vocab))
        report = report_of(cands, lex)
        ks = sorted(report.p_at)
        assert all(report.p_at[a] <= report.p_at[b] for a, b in zip(ks, ks[1:]))


class TestPosBreakdown:
    def build(self):
        lex = GroundTruthLexicon("s", "t")
        cands = {}
        vocab = [f"t{i}" for i in range(6)]
        specs = [("n0", "t0", "noun", 1), ("n1", "t1", "noun", 3),
                 ("f0", "t2", "func", 2), ("f1", "t3", "func", 6)]
        for word, target, tag, rank in specs:
            lex.add(word, target, tag)
            rest = [v for v in vocab if v != target]
            order = rest[: rank - 1] + [target] + rest[rank - 1:]
            cands[word] = order
        return lex, cands

    def test_single_tag_equals_overall(self):
        lex = GroundTruthLexicon("s", "t")
        cands = {}
        for i in range(4):
            lex.add(f"w{i}", f"t{i}", "noun")
            cands[f"w{i}"] = [f"t{j}" for j in range(4)]
        overall = report_of(cands, lex)
        (only,) = pos_reports_of(cands, lex)
        assert only.pos == "noun"
        assert (only.mrr, only.p_at, only.n) == (overall.mrr, overall.p_at, overall.n)

    def test_overall_is_weighted_mean_of_groups(self):
        lex, cands = self.build()
        overall = report_of(cands, lex)
        groups = pos_reports_of(cands, lex)
        weighted = sum(g.mrr * g.n for g in groups) / sum(g.n for g in groups)
        assert abs(overall.mrr - weighted) < 1e-12

    def test_untagged_goes_to_unk(self):
        lex = GroundTruthLexicon("s", "t")
        lex.add("tagged", "t0", "noun")
        lex.add("plain", "t1")
        cands = {"tagged": ["t0", "t1"], "plain": ["t0", "t1"]}
        tags = {r.pos for r in pos_reports_of(cands, lex)}
        assert tags == {"noun", "unk"}


class TestFiles:
    def test_rankings_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        rankings = {}
        for w in ("beta", "alpha"):
            items = sorted(((f"t{i}", float(rng.normal())) for i in range(5)),
                           key=lambda kv: (-kv[1], kv[0]))
            rankings[w] = ranking_from_pairs(w, "fused", items)
        path = tmp_path / "rankings.tsv"
        write_rankings(path, {"fused": rankings})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[:2] for line in lines] == [["alpha", "fused"],
                                                            ["beta", "fused"]]
        for line in lines:
            source, _, cells = line.split("\t")
            got = [cell.rpartition(":") for cell in cells.split(",")]
            assert [c for c, _, _ in got] == [c for c, _ in ranked_pairs(rankings[source])]
            for (_, _, text), (_, value) in zip(got, ranked_pairs(rankings[source])):
                assert len(text.partition(".")[2]) == 6
                assert abs(float(text) - value) <= 5e-7

    def test_rankings_truncation(self, tmp_path):
        items = [(f"t{i:02d}", 1.0 - i * 0.01) for i in range(30)]
        rankings = {"w": ranking_from_pairs("w", "fused", items)}
        path = tmp_path / "rankings.tsv"
        write_rankings(path, {"fused": rankings})
        cells = path.read_text(encoding="utf-8").rstrip("\n").split("\t")[2].split(",")
        assert [cell.rpartition(":")[0] for cell in cells] == [w for w, _ in items[:20]]

    def test_report_files(self, tmp_path):
        report = EvalReport(method="fused", pos="all", n=10, mrr=0.625,
                            p_at={1: 0.5, 5: 1.0, 10: 1.0, 20: 1.0},
                            unranked_lexicon_words=2, gold_outside_targets=1)
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        write_report_csv(csv_path, [report])
        write_report_json(json_path, [report])
        text = csv_path.read_text()
        assert "method,pos,n,mrr,p1,p5,p10,p20,skipped,fallback_pairs" in text
        assert "fused,all,10,0.625,50.0,100.0,100.0,100.0,3,0" in text
        assert "50.0" in text  # P@1 as a percentage
        import json as json_lib
        data = json_lib.loads(json_path.read_text())
        assert data["reports"][0]["mrr"] == 0.625
        assert data["reports"][0]["p1"] == 50.0
