import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexipivot import localization
from lexipivot.arrayfile import read_arrays, write_arrays
from lexipivot.corpus.vocab import BOS, EOS, UNK, CaptionedExample, pad_tokens
from lexipivot.errors import FormatError
from lexipivot.localization import (
    collect_word_features,
    encode_images,
    localize,
    read_word_features,
    write_word_features,
)
from lexipivot.numerics import Tensor, grad_enabled

from conftest import build_corpus, build_model, indexed
from helpers import edit_header, localize_one, probe_by_steps


def params_digest(model):
    h = hashlib.sha256()
    for name, p in model.params.items():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


def walk_one(model, lang, features, tokens, method="probe"):
    """One caption through `localize` on its raw region features:
    (feature [L-2,D], region weights [L-2,K]) of each word position."""
    ex = CaptionedExample(0, lang, tuple(tokens))
    images = encode_images(model, [ex], np.asarray(features)[None])
    feats, weights, _, _ = localize(model, lang, pad_tokens([ex]), images, method)
    return feats, weights


def caption_rows(examples):
    """The rows of each caption's word positions in corpus order."""
    first = np.cumsum([0] + [len(ex.tokens) - 2 for ex in examples])
    return [np.arange(lo, hi) for lo, hi in zip(first[:-1], first[1:])]


@pytest.fixture(scope="module")
def setup():
    bundle = build_corpus()
    model = build_model(bundle)
    lang = bundle.config.languages[0]
    return bundle, model, lang


class TestProbe:
    def test_image_blind_model_gives_uniform_weights(self, setup):
        bundle, _, lang = setup
        model = build_model(bundle)
        model.params["encoder.weight"].data[...] = 0.0
        model.params["encoder.bias"].data[...] = 0.7  # regions all encode identically
        ex = indexed(bundle)[lang][0]
        feats = bundle.regions[lang][ex.image_row]
        feature, weights = walk_one(model, lang, feats, ex.tokens)
        k = bundle.config.grid_side ** 2
        a = model.encode(np.asarray(feats)[None])[0]
        np.testing.assert_allclose(weights, 1.0 / k, atol=1e-12)
        np.testing.assert_allclose(feature, np.broadcast_to(a.mean(axis=0), feature.shape),
                                   atol=1e-12)

    def test_single_region_grid(self):
        bundle = build_corpus(grid_side=1, min_concepts_per_scene=1,
                              max_concepts_per_scene=1)
        model = build_model(bundle)
        lang = bundle.config.languages[0]
        ex = indexed(bundle)[lang][0]
        feature, weights = walk_one(model, lang, bundle.regions[lang][ex.image_row], ex.tokens)
        a = model.encode(np.asarray(bundle.regions[lang][ex.image_row])[None])[0]
        np.testing.assert_allclose(weights, 1.0, atol=1e-15)
        np.testing.assert_allclose(feature, np.broadcast_to(a[0], feature.shape), atol=1e-15)

    def test_weights_positive_sum_to_one_and_recompose(self, setup):
        bundle, model, lang = setup
        for ex in indexed(bundle)[lang][:10]:
            feats = bundle.regions[lang][ex.image_row]
            feature, weights = walk_one(model, lang, feats, ex.tokens)
            assert len(weights) == len(ex.tokens) - 2
            a = model.encode(np.asarray(feats)[None])[0]
            for f, w in zip(feature, weights):
                assert abs(w.sum() - 1.0) < 1e-9
                assert np.all(w > 0)
                assert np.array_equal(f, w @ a)

    def test_read_only(self, setup):
        bundle, model, lang = setup
        before = params_digest(model)
        ex = indexed(bundle)[lang][0]
        encoded = encode_images(model, [ex], bundle.regions[lang])
        collect_word_features(model, [ex], encoded, lang, "probe")
        collect_word_features(model, [ex], encoded, lang, "attention")
        assert params_digest(model) == before

    def test_unknown_language(self, setup):
        bundle, model, lang = setup
        ex = indexed(bundle)[lang][0]
        encoded = encode_images(model, [ex], bundle.regions[lang])
        for method in ("probe", "attention"):
            with pytest.raises(KeyError):
                collect_word_features(model, [ex], encoded, "nope", method)


class TestAttentionLocalization:
    def test_weights_sum_to_one(self, setup):
        bundle, model, lang = setup
        ex = indexed(bundle)[lang][0]
        _, weights = walk_one(model, lang, bundle.regions[lang][ex.image_row], ex.tokens,
                              "attention")
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-9)


class TestCollection:
    def test_occurrence_accounting(self, setup):
        bundle, model, lang = setup
        examples = indexed(bundle)[lang][:20]
        sets = collect_word_features(model, examples,
                                     encode_images(model, examples, bundle.regions[lang]), lang,
                                     "probe")
        total = sum(len(v) for v in sets.values())
        expected = sum(len(ex.tokens) - 2 for ex in examples)
        assert total == expected

    def test_word_occurrence_count_matches(self, setup):
        bundle, model, lang = setup
        examples = indexed(bundle)[lang][:20]
        sets = collect_word_features(model, examples,
                                     encode_images(model, examples, bundle.regions[lang]), lang,
                                     "probe")
        from collections import Counter
        counts = Counter(t for ex in examples for t in ex.tokens[1:-1])
        for word_index, feats in sets.items():
            assert len(feats) == counts[word_index]

    @pytest.mark.parametrize("method", ["probe", "attention"])
    def test_collection_leaves_grad_mode_on(self, setup, method):
        bundle, model, lang = setup
        examples = indexed(bundle)[lang][:3]
        collect_word_features(model, examples,
                              encode_images(model, examples, bundle.regions[lang]), lang, method)
        assert grad_enabled()

    def test_extraction_builds_no_tensor(self, setup, monkeypatch):
        """Encoding and both methods' decodes run on plain arrays."""
        bundle, model, lang = setup
        examples = indexed(bundle)[lang][:6]
        built = []
        init = Tensor.__init__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counted_init)
        encoded = encode_images(model, examples, bundle.regions[lang])
        for method in ("probe", "attention"):
            collect_word_features(model, examples, encoded, lang, method)
        extraction = len(built)
        Tensor([1.0])  # the count sees a construction
        assert (extraction, len(built)) == (0, 1)

    def test_methods_share_inventory(self, setup):
        bundle, model, lang = setup
        examples = indexed(bundle)[lang][:10]
        encoded = encode_images(model, examples, bundle.regions[lang])
        probe = collect_word_features(model, examples, encoded, lang, "probe")
        attn = collect_word_features(model, examples, encoded, lang, "attention")
        assert probe.keys() == attn.keys()


class TestEncodeImages:
    def test_encodes_the_used_images_of_an_unsorted_block_in_block_order(self, setup,
                                                                          monkeypatch):
        bundle, _, lang = setup
        model = build_model(bundle)
        grids = bundle.regions[lang]
        unused = len(grids)
        # the block's rows reversed, then an image no caption uses
        block = np.concatenate([grids[::-1], np.full_like(grids[:1], np.nan)])
        examples = [CaptionedExample(unused - 1 - ex.image_row, lang, ex.tokens)
                    for ex in indexed(bundle)[lang][:12]]
        used = sorted({ex.image_row for ex in examples})
        assert len(used) > 1 and unused not in used  # block order is not scene order
        monkeypatch.setattr(localization, "ROW_CAP", 3)
        inputs = []
        encode = model.encode
        monkeypatch.setattr(model, "encode", lambda g: inputs.append(g) or encode(g))
        regions, rows = encode_images(model, examples, block)
        monkeypatch.undo()

        assert len(regions) == len(used)
        assert all(len(g) <= 3 for g in inputs)
        assert not np.isnan(np.concatenate(inputs)).any()  # the unused image
        assert np.array_equal(np.concatenate(inputs),
                              np.stack([grids[unused - 1 - row] for row in used]))
        assert rows.shape == (len(examples),)
        for ex, row in zip(examples, rows):
            assert used[row] == ex.image_row
            want = model.encode(block[ex.image_row][None])[0]
            np.testing.assert_allclose(regions[row], want, rtol=1e-6)


# images per decode chunk at K = 4 regions, by ROW_CAP (None: the default 128)
IMAGES_PER_CHUNK = {None: {"probe": 32, "attention": 128}, 2: {"probe": 1, "attention": 2},
                    9: {"probe": 2, "attention": 9}}


def mixed_length_examples(bundle, lang):
    """The corpus captions cut to 1-4 words, some words replaced by UNK."""
    out = []
    for i, ex in enumerate(indexed(bundle)[lang]):
        words = list(ex.tokens[1:-1])[: 1 + i % 4]
        if i % 5 == 0:
            words[-1] = UNK
        out.append(CaptionedExample(ex.image_row, lang, (BOS, *words, EOS)))
    return out


def reference_word_features(model, examples, regions, lang, method):
    """Per-caption decodes (batches of one), grouped as the collection
    documents: corpus order, UNK dropped."""
    sets = {}
    for ex in examples:
        feature, _ = localize_one(model, lang, regions[ex.image_row], ex.tokens, method)
        for word_index, row in zip(ex.tokens[1:-1], feature):
            if word_index != UNK:
                sets.setdefault(word_index, []).append(row)
    return sets


class TestBatchedEquivalence:
    """The prefix-shared walk against per-caption decodes, in float64."""

    @pytest.fixture(scope="class")
    def mixed(self, tiny_bundle):
        lang = tiny_bundle.config.languages[0]
        model = build_model(tiny_bundle, dtype=np.float64)
        return tiny_bundle, model, lang, mixed_length_examples(tiny_bundle, lang)

    @pytest.mark.parametrize("row_cap", [None, 2, 9])
    @pytest.mark.parametrize("method", ["probe", "attention"])
    def test_collection_matches_per_caption_decodes(self, mixed, monkeypatch, method,
                                                    row_cap):
        bundle, model, lang, examples = mixed
        # K = 4 regions, 24 images. The default cap decodes all of them in
        # one chunk. A cap of 2 is below K: probe decodes one image per
        # chunk. A cap of 9 cuts them into probe chunks of 2 images and
        # attention chunks of 9, and encodes the images 9 at a time.
        if row_cap is not None:
            monkeypatch.setattr(localization, "ROW_CAP", row_cap)
        counts = {}
        got = collect_word_features(model, examples,
                                    encode_images(model, examples, bundle.regions[lang]), lang,
                                    method, counts=counts)
        want = reference_word_features(model, examples, bundle.regions[lang], lang, method)
        assert got.keys() == want.keys()
        for word_index, feats in got.items():
            assert feats.shape == (len(want[word_index]), model.dims.embed_dim)
            np.testing.assert_allclose(feats, np.array(want[word_index]), rtol=0, atol=1e-10)
        images = len({ex.image_row for ex in examples})
        assert counts["batches"] == -(-images // IMAGES_PER_CHUNK[row_cap][method])
        assert counts["decoded"] == len({(ex.image_row, ex.tokens[:t + 1]) for ex in examples
                                         for t in range(len(ex.tokens) - 2)})
        assert counts["occurrences"] == sum(len(ex.tokens) - 2 for ex in examples)
        assert 0 < counts["decoded"] < counts["occurrences"]  # the captions share prefixes
        assert counts["dropped_unk"] == sum(t == UNK for ex in examples for t in ex.tokens)
        assert counts["words"] == len(got)
        assert sorted(counts) == ["batches", "decoded", "dropped_unk", "occurrences", "words"]

    @pytest.mark.parametrize("method", ["probe", "attention"])
    def test_batch_weights_match_batches_of_one(self, mixed, method):
        bundle, model, lang, examples = mixed
        feats, weights, _, _ = localize(model, lang, pad_tokens(examples),
                                        encode_images(model, examples, bundle.regions[lang]),
                                        method)
        for ex, rows in zip(examples, caption_rows(examples)):
            feature, weight = localize_one(model, lang, bundle.regions[lang][ex.image_row],
                                           ex.tokens, method)
            np.testing.assert_allclose(weights[rows], weight, rtol=0, atol=1e-10)
            np.testing.assert_allclose(feats[rows], feature, rtol=0, atol=1e-10)


class TestPrefixSharing:
    """Hand-built captions whose decode states are shared or must not be."""

    @staticmethod
    def captions(lang):
        a, b, c, d, e = range(UNK + 1, UNK + 6)
        texts = [
            (7, (a, b, c)), (2, (UNK, UNK, a)), (7, (a, b, c)),  # two identical captions
            (7, (a, b)),                                 # a strict prefix of them
            (7, (a, b, c, d)), (7, (a, b, c, e)),        # diverge at word 4
            (7, (a, b, d)), (7, (a, c)), (7, (b, a)),    # diverge at words 3, 2 and 1
            (0, (a, b, c)),                              # the same text on another image
            (0, (a, UNK, c)), (0, (a, UNK, d)),          # UNK inside a shared prefix
            (2, (UNK, UNK, b)), (0, (e,)),
        ]
        return [CaptionedExample(row, lang, (BOS, *words, EOS)) for row, words in texts]

    @pytest.mark.parametrize("row_cap", [None, 2, 9])
    @pytest.mark.parametrize("method", ["probe", "attention"])
    def test_shared_prefixes_decode_once(self, tiny_bundle, monkeypatch, method, row_cap):
        lang = tiny_bundle.config.languages[0]
        model = build_model(tiny_bundle, dtype=np.float64)
        examples = self.captions(lang)
        if row_cap is not None:
            monkeypatch.setattr(localization, "ROW_CAP", row_cap)
        regions = tiny_bundle.regions[lang]
        feats, weights, decoded, chunks = localize(model, lang, pad_tokens(examples),
                                                   encode_images(model, examples, regions),
                                                   method)
        for ex, rows in zip(examples, caption_rows(examples)):
            feature, weight = localize_one(model, lang, regions[ex.image_row], ex.tokens,
                                           method)
            np.testing.assert_allclose(weights[rows], weight, rtol=0, atol=1e-10)
            np.testing.assert_allclose(feats[rows], feature, rtol=0, atol=1e-10)
        states = {(ex.image_row, ex.tokens[:t + 1]) for ex in examples
                  for t in range(len(ex.tokens) - 2)}
        # image 7: BOS, a, a b, a b c, b; image 2: BOS, UNK, UNK UNK; image 0:
        # BOS, a, a b, a UNK
        assert decoded == len(states) == 12
        assert len(feats) == sum(len(ex.tokens) - 2 for ex in examples) == 39
        assert chunks == -(-3 // IMAGES_PER_CHUNK[row_cap][method])

    def test_same_text_on_two_images_differs(self, tiny_bundle):
        lang = tiny_bundle.config.languages[0]
        model = build_model(tiny_bundle, dtype=np.float64)
        examples = self.captions(lang)
        images = encode_images(model, examples, tiny_bundle.regions[lang])
        rows = caption_rows(examples)
        for method in ("probe", "attention"):
            feats, _, _, _ = localize(model, lang, pad_tokens(examples), images, method)
            assert np.array_equal(feats[rows[0]], feats[rows[2]])
            assert not np.allclose(feats[rows[0]], feats[rows[9]])


@st.composite
def caption_sets(draw, images_in_block):
    """(image row, words) of 1-3 captions on each of 1-6 distinct rows of a
    region block, in shuffled order. The words come from a four-token
    alphabet with UNK, and a caption may copy or cut an earlier one, so
    captions repeat, end inside each other and share text across images."""
    rows = draw(st.lists(st.integers(0, images_in_block - 1), min_size=1, max_size=6,
                         unique=True))
    word = st.sampled_from((UNK, UNK + 1, UNK + 2, UNK + 3))
    texts = []
    for row in rows:
        for _ in range(draw(st.integers(1, 3))):
            if texts and draw(st.booleans()):  # the same text, or a strict prefix of it
                earlier = draw(st.sampled_from(texts))[1]
                words = earlier[:draw(st.integers(1, len(earlier)))]
            else:
                words = tuple(draw(st.lists(word, min_size=1, max_size=4)))
            texts.append((row, words))
    return draw(st.permutations(texts))


class TestWalkProperty:
    """The prefix-shared walk on drawn caption sets, under every chunking."""

    @pytest.fixture(scope="class")
    def tiny(self, tiny_bundle):
        lang = tiny_bundle.config.languages[0]
        return tiny_bundle, build_model(tiny_bundle, dtype=np.float64), lang

    @given(texts=caption_sets(24))
    @settings(max_examples=100, deadline=None)
    def test_walk_matches_per_caption_decodes(self, tiny, texts):
        bundle, model, lang = tiny
        assert len(bundle.regions[lang]) == 24
        examples = [CaptionedExample(row, lang, (BOS, *words, EOS)) for row, words in texts]
        images = len({row for row, _ in texts})
        k = bundle.config.grid_side ** 2
        states = len({(ex.image_row, ex.tokens[:t + 1]) for ex in examples
                      for t in range(len(ex.tokens) - 2)})
        for method in ("probe", "attention"):
            want = reference_word_features(model, examples, bundle.regions[lang], lang, method)
            for row_cap in (1, 2, 3, 5, 128):
                counts = {}
                with mock.patch.object(localization, "ROW_CAP", row_cap):
                    got = collect_word_features(
                        model, examples, encode_images(model, examples, bundle.regions[lang]),
                        lang, method, counts=counts)
                assert got.keys() == want.keys()
                for word_index, feats in got.items():
                    np.testing.assert_allclose(feats, np.array(want[word_index]), rtol=0,
                                               atol=1e-10)
                per_chunk = max(1, row_cap // k) if method == "probe" else row_cap
                assert counts["decoded"] == states
                assert counts["batches"] == -(-images // per_chunk)


class TestProbeUnroll:
    """The hoisted probe decode against the per-step oracle: `model.step` on
    B*K single-region rows."""

    @staticmethod
    def length_groups(bundle, model, lang):
        """(examples, regions [B,K,D], tokens [B,L]) of each length group of
        the mixed captions."""
        examples = mixed_length_examples(bundle, lang)
        for length in sorted({len(ex.tokens) for ex in examples}):
            group = [ex for ex in examples if len(ex.tokens) == length]
            regions = model.encode(np.stack([bundle.regions[lang][ex.image_row]
                                             for ex in group]))
            yield group, regions, np.array([ex.tokens for ex in group])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_per_step_oracle(self, tiny_bundle, dtype):
        lang = tiny_bundle.config.languages[0]
        model = build_model(tiny_bundle, embed_dim=16, attn_dim=8, dtype=dtype)
        # the split input product rounds differently from [word | region] @ W_ih
        atol = 1e-12 if dtype == np.float64 else 8 * np.finfo(np.float32).eps
        for group, regions, tokens in self.length_groups(tiny_bundle, model, lang):
            feats, weights, _, _ = localize(
                model, lang, pad_tokens(group),
                encode_images(model, group, tiny_bundle.regions[lang]), "probe")
            b, steps = tokens.shape[0], tokens.shape[1] - 2
            feats, weights = feats.reshape(b, steps, -1), weights.reshape(b, steps, -1)
            want_feats, want_weights, _, _ = probe_by_steps(model, lang, regions, tokens)
            assert feats.dtype == weights.dtype == dtype
            np.testing.assert_allclose(weights, want_weights, rtol=0, atol=atol)
            np.testing.assert_allclose(feats, want_feats, rtol=0, atol=atol)
            k = regions.shape[1]
            np.testing.assert_allclose(weights.sum(axis=2), 1.0, rtol=0,
                                       atol=4 * k * np.finfo(dtype).eps)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_single_region_attention_is_the_region(self, tiny_bundle, dtype):
        # the fact that lets the hoisted decode drop the scorer
        lang = tiny_bundle.config.languages[0]
        model = build_model(tiny_bundle, embed_dim=16, attn_dim=8, dtype=dtype)
        for _, regions, tokens in self.length_groups(tiny_bundle, model, lang):
            _, _, alphas, contexts = probe_by_steps(model, lang, regions, tokens)
            assert np.all(alphas == 1.0)
            rows = regions.reshape(-1, regions.shape[2])
            assert np.array_equal(contexts, np.broadcast_to(rows, contexts.shape))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_reruns_write_identical_tables(self, tiny_bundle, tmp_path, dtype):
        lang = tiny_bundle.config.languages[0]
        model = build_model(tiny_bundle, dtype=dtype)
        examples = mixed_length_examples(tiny_bundle, lang)
        blobs = []
        for run in range(2):
            sets = collect_word_features(
                model, examples, encode_images(model, examples, tiny_bundle.regions[lang]), lang,
                "probe")
            path = tmp_path / f"{run}.lxwf"
            write_word_features(path, lang, {str(w): (len(r), r) for w, r in sets.items()},
                                aggregated=False)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestTableFile:
    def test_round_trip_raw_and_aggregated(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = {"hund": (3, rng.normal(size=(3, 5))), "katze": (1, rng.normal(size=(1, 5)))}
        agg = {w: (c, m.mean(axis=0, keepdims=True)) for w, (c, m) in raw.items()}
        p_raw, p_agg = tmp_path / "raw.lxwf", tmp_path / "agg.lxwf"
        write_word_features(p_raw, "de", raw, aggregated=False)
        write_word_features(p_agg, "de", agg, aggregated=True)
        lang, aggregated, entries = read_word_features(p_raw)
        assert (lang, aggregated) == ("de", False)
        assert entries.keys() == raw.keys()
        for w in raw:
            assert entries[w][0] == raw[w][0]
            assert np.array_equal(entries[w][1], raw[w][1])
        lang, aggregated, entries = read_word_features(p_agg)
        assert aggregated and entries["hund"][0] == 3
        assert entries["hund"][1].shape == (1, 5)

    def test_one_block_of_rows_in_word_order(self, tmp_path):
        """The file holds one [rows, D] array; every word's rows are a view of
        the block as read."""
        entries = {"b": (2, np.full((2, 3), 2.0)), "a": (1, np.ones((1, 3))),
                   "c": (0, np.zeros((0, 3)))}
        path = tmp_path / "raw.lxwf"
        write_word_features(path, "de", entries, aggregated=False)
        meta, arrays = read_arrays(path, localization.TABLE_MAGIC, "<f8")
        assert meta == {"language": "de", "aggregated": False, "words": ["a", "b", "c"],
                        "counts": [1, 2, 0]}
        assert list(arrays) == ["rows"]
        assert np.array_equal(arrays["rows"], [[1.0] * 3, [2.0] * 3, [2.0] * 3])
        back = read_word_features(path)[2]
        block = back["a"][1].base
        assert block is not None and all(rows.base is block for _, rows in back.values())

    def test_round_trip_first_word_without_rows(self, tmp_path):
        entries = {"a": (0, np.zeros((0, 3))), "b": (1, np.ones((1, 3)))}
        path = tmp_path / "raw.lxwf"
        write_word_features(path, "de", entries, aggregated=False)
        _, _, back = read_word_features(path)
        assert back.keys() == entries.keys()
        for word, (count, rows) in entries.items():
            assert back[word][0] == count
            assert back[word][1].shape == rows.shape
            assert np.array_equal(back[word][1], rows)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lxwf"
        path.write_bytes(b"XXXX" + b"\x00" * 24)
        with pytest.raises(FormatError):
            read_word_features(path)

    @pytest.mark.parametrize("edit,fragment", [
        (lambda h: h["meta"]["counts"].pop(), "one occurrence count per word"),
        (lambda h: h["meta"].update(counts=[2, -1]), "one occurrence count per word"),
        (lambda h: h["meta"].update(aggregated=1), "aggregated flag"),
        (lambda h: h["meta"].pop("language"), "language"),
        (lambda h: h["meta"].update(words=["hund", 3]), "words sorted and distinct"),
        (lambda h: h["meta"].update(words=["hund", "hund"]), "words sorted and distinct"),
        (lambda h: h["meta"].update(words=["katze", "hund"]), "words sorted and distinct"),
        (lambda h: h["meta"].pop("words"), "words sorted and distinct"),
        (lambda h: h["meta"].update(counts=[1, 1]),
         "2 words with 2 rows among them, but the block holds 3 rows"),
        (lambda h: h["meta"].update(counts=[3, 1]),
         "2 words with 4 rows among them, but the block holds 3 rows"),
        (lambda h: h["meta"].update(aggregated=True),
         "2 words with 2 rows among them, but the block holds 3 rows"),
        (lambda h: h["arrays"][0].__setitem__(2, [9]), "shape \\(9,\\), not \\[rows, D\\]"),
        (lambda h: h["arrays"][0].__setitem__(2, [3, 1, 3]), "shape \\(3, 1, 3\\)"),
        (lambda h: h["arrays"].append(["extra", "<f8", [0, 3]]),
         "\\['rows', 'extra'\\] instead of one block"),
        (lambda h: h["arrays"][0].__setitem__(0, "hund"), "\\['hund'\\] instead of one block"),
    ], ids=["fewer counts", "negative count", "integer flag", "no language",
            "non-string word", "duplicate word", "unsorted words", "no words",
            "counts below rows", "counts above rows", "aggregated raw rows", "1-d block",
            "3-d block", "extra array", "renamed block"])
    def test_header_that_does_not_describe_the_rows(self, tmp_path, edit, fragment):
        path = tmp_path / "raw.lxwf"
        write_word_features(path, "de", {"hund": (2, np.ones((2, 3))),
                                         "katze": (1, np.zeros((1, 3)))}, aggregated=False)
        edit_header(path, edit)
        with pytest.raises(FormatError, match=fragment):
            read_word_features(path)

    def test_per_word_layout_says_to_regenerate(self, tmp_path):
        """A table of the earlier layout, one array per word, does not read."""
        path = tmp_path / "old.lxwf"
        write_arrays(path, localization.TABLE_MAGIC, "<f8",
                     {"language": "de", "aggregated": True, "counts": [2, 1]},
                     {"hund": np.ones((1, 3)), "katze": np.zeros((1, 3))})
        with pytest.raises(FormatError, match="per-word layout with `lexipivot extract`"):
            read_word_features(path)

    @pytest.mark.parametrize("aggregated", [False, True])
    @pytest.mark.parametrize("bad", [[], ["a"], ["c", "a"], ["c", "e"], ["e"]])
    def test_non_finite_value_names_the_first_bad_word_in_file_order(self, tmp_path,
                                                                     bad, aggregated):
        """The words around the bad ones hold one row, none or several."""
        entries = {"a": (1, np.ones((1, 3))), "b": (0, np.zeros((0, 3))),
                   "c": (3, np.ones((3, 3))), "d": (0, np.zeros((0, 3))),
                   "e": (2, np.ones((2, 3)))}
        if aggregated:
            entries = {w: (count, np.ones((1, 3))) for w, (count, _) in entries.items()}
        for value, word in zip((np.nan, np.inf), bad):
            entries[word][1][-1, -1] = value
        path = tmp_path / "raw.lxwf"
        write_word_features(path, "de", entries, aggregated=aggregated)
        if not bad:
            assert read_word_features(path)[2].keys() == entries.keys()
            return
        with pytest.raises(FormatError, match=f"word '{min(bad)}' has a non-finite"):
            read_word_features(path)

    def test_table_without_words(self, tmp_path):
        path = tmp_path / "empty.lxwf"
        write_word_features(path, "de", {}, aggregated=True)
        assert read_word_features(path) == ("de", True, {})

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        entries = {"b": (2, rng.normal(size=(2, 3))), "a": (1, rng.normal(size=(1, 3)))}
        write_word_features(tmp_path / "1.lxwf", "xx", entries, aggregated=False)
        write_word_features(tmp_path / "2.lxwf", "xx", dict(reversed(entries.items())),
                            aggregated=False)
        assert (tmp_path / "1.lxwf").read_bytes() == (tmp_path / "2.lxwf").read_bytes()
