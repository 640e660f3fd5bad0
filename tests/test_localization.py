import hashlib

import numpy as np
import pytest

from lexipivot import localization
from lexipivot.corpus.vocab import BOS, EOS, UNK, CaptionedExample
from lexipivot.errors import FormatError, InputError
from lexipivot.localization import (
    collect_word_features,
    localize_batch,
    read_word_features,
    write_word_features,
)
from lexipivot.numerics import Tensor, grad_enabled, no_grad, tanh
from lexipivot.seeding import substream

from conftest import build_corpus, build_model
from helpers import localize_one


def params_digest(model):
    h = hashlib.sha256()
    for name, p in model.params.items():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


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
        ex = bundle.examples[lang][0]
        feats = bundle.features[ex.scene_id]
        feature, weights = localize_one(model, lang, feats, ex.tokens)
        k = bundle.config.grid_side ** 2
        with no_grad():
            a = model.encode(np.asarray(feats)[None]).data[0]
        np.testing.assert_allclose(weights, 1.0 / k, atol=1e-12)
        np.testing.assert_allclose(feature, np.broadcast_to(a.mean(axis=0), feature.shape),
                                   atol=1e-12)

    def test_single_region_grid(self):
        bundle = build_corpus(grid_side=1, min_concepts_per_scene=1,
                              max_concepts_per_scene=1)
        model = build_model(bundle)
        lang = bundle.config.languages[0]
        ex = bundle.examples[lang][0]
        feature, weights = localize_one(model, lang, bundle.features[ex.scene_id], ex.tokens)
        with no_grad():
            a = model.encode(np.asarray(bundle.features[ex.scene_id])[None]).data[0]
        np.testing.assert_allclose(weights, 1.0, atol=1e-15)
        np.testing.assert_allclose(feature, np.broadcast_to(a[0], feature.shape), atol=1e-15)

    def test_weights_positive_sum_to_one_and_recompose(self, setup):
        bundle, model, lang = setup
        for ex in bundle.examples[lang][:10]:
            feats = bundle.features[ex.scene_id]
            feature, weights = localize_one(model, lang, feats, ex.tokens)
            assert len(weights) == len(ex.tokens) - 2
            with no_grad():
                a = model.encode(np.asarray(feats)[None]).data[0]
            for f, w in zip(feature, weights):
                assert abs(w.sum() - 1.0) < 1e-9
                assert np.all(w > 0)
                assert np.array_equal(f, w @ a)

    def test_read_only(self, setup):
        bundle, model, lang = setup
        before = params_digest(model)
        ex = bundle.examples[lang][0]
        collect_word_features(model, [ex], bundle.features, lang, "probe")
        collect_word_features(model, [ex], bundle.features, lang, "attention")
        assert params_digest(model) == before

    def test_rejects_unwrapped_caption(self, setup):
        bundle, model, lang = setup
        scene_id = bundle.scenes[lang][0].scene_id
        for tokens in ([5, 6, 7], [BOS, EOS]):
            caption = CaptionedExample(scene_id, lang, tokens, "")
            with pytest.raises(InputError):
                collect_word_features(model, [caption], bundle.features, lang)

    def test_unknown_language(self, setup):
        bundle, model, lang = setup
        ex = bundle.examples[lang][0]
        with pytest.raises(KeyError):
            localize_one(model, "nope", bundle.features[ex.scene_id], ex.tokens)


class TestAttentionLocalization:
    def test_weights_sum_to_one(self, setup):
        bundle, model, lang = setup
        ex = bundle.examples[lang][0]
        _, weights = localize_one(model, lang, bundle.features[ex.scene_id], ex.tokens,
                                  "attention")
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-9)


class TestCollection:
    def test_occurrence_accounting(self, setup):
        bundle, model, lang = setup
        examples = bundle.examples[lang][:20]
        sets = collect_word_features(model, examples, bundle.features, lang)
        total = sum(len(v) for v in sets.values())
        expected = sum(len(ex.tokens) - 2 for ex in examples)
        assert total == expected

    def test_word_occurrence_count_matches(self, setup):
        bundle, model, lang = setup
        examples = bundle.examples[lang][:20]
        sets = collect_word_features(model, examples, bundle.features, lang)
        from collections import Counter
        counts = Counter(t for ex in examples for t in ex.tokens[1:-1])
        for word_index, feats in sets.items():
            assert len(feats) == counts[word_index]

    def test_cap_subsamples(self, setup):
        bundle, model, lang = setup
        examples = bundle.examples[lang][:20]
        sets = collect_word_features(model, examples, bundle.features, lang,
                                     cap=1, seed=3)
        assert all(len(v) == 1 for v in sets.values())

    @pytest.mark.parametrize("method", ["probe", "attention"])
    def test_collection_leaves_grad_mode_on(self, setup, method):
        bundle, model, lang = setup
        collect_word_features(model, bundle.examples[lang][:3], bundle.features,
                              lang, method)
        assert grad_enabled()
        assert tanh(Tensor([1.0], requires_grad=True)).requires_grad

    def test_methods_share_inventory(self, setup):
        bundle, model, lang = setup
        examples = bundle.examples[lang][:10]
        probe = collect_word_features(model, examples, bundle.features, lang, "probe")
        attn = collect_word_features(model, examples, bundle.features, lang, "attention")
        assert probe.keys() == attn.keys()

    def test_unknown_method(self, setup):
        bundle, model, lang = setup
        with pytest.raises(InputError):
            collect_word_features(model, [], bundle.features, lang, method="pixel")


def mixed_length_examples(bundle, lang):
    """The corpus captions cut to 1-4 words, some words replaced by UNK."""
    out = []
    for i, ex in enumerate(bundle.examples[lang]):
        words = list(ex.tokens[1:-1])[: 1 + i % 4]
        if i % 5 == 0:
            words[-1] = UNK
        out.append(CaptionedExample(ex.scene_id, lang, (BOS, *words, EOS), ex.raw_text))
    return out


def reference_word_features(model, examples, features_by_id, lang, method, cap, seed):
    """Per-caption decodes (batches of one), grouped as the collection
    documents: corpus order, UNK dropped, seeded subsample by index."""
    sets = {}
    for ex in examples:
        feature, _ = localize_one(model, lang, features_by_id[ex.scene_id], ex.tokens, method)
        for word_index, row in zip(ex.tokens[1:-1], feature):
            if word_index != UNK:
                sets.setdefault(word_index, []).append(row)
    if cap is not None:
        for word_index, feats in sets.items():
            if len(feats) > cap:
                rng = substream(seed, f"subsample:{lang}:{word_index}")
                keep = sorted(rng.choice(len(feats), size=cap, replace=False))
                sets[word_index] = [feats[i] for i in keep]
    return sets


class TestBatchedEquivalence:
    """Batched collection against per-caption decodes, in float64."""

    @pytest.fixture(scope="class")
    def mixed(self, tiny_bundle):
        lang = tiny_bundle.config.languages[0]
        model = build_model(tiny_bundle, dtype=np.float64)
        return tiny_bundle, model, lang, mixed_length_examples(tiny_bundle, lang)

    @pytest.mark.parametrize("cap", [None, 2])
    @pytest.mark.parametrize("method", ["probe", "attention"])
    def test_collection_matches_per_caption_decodes(self, mixed, monkeypatch, method, cap):
        bundle, model, lang, examples = mixed
        # K = 4 regions: probe batches of 2 captions inside encoder chunks
        # of 9 images; both split each 12-caption length group
        monkeypatch.setattr(localization, "ROW_CAP", 9)
        counts = {}
        got = collect_word_features(model, examples, bundle.features, lang, method,
                                    cap=cap, seed=4, counts=counts)
        uncapped = reference_word_features(model, examples, bundle.features, lang, method,
                                           None, seed=4)
        want = reference_word_features(model, examples, bundle.features, lang, method,
                                       cap, seed=4)
        assert got.keys() == want.keys()
        for word_index, feats in got.items():
            assert feats.shape == (len(want[word_index]), model.dims.embed_dim)
            np.testing.assert_allclose(feats, np.array(want[word_index]), rtol=0, atol=1e-10)
        groups = {len(ex.tokens) for ex in examples}
        assert counts["batches"] > len(groups)
        assert counts["occurrences"] == sum(len(ex.tokens) - 2 for ex in examples)
        assert counts["dropped_unk"] == sum(t == UNK for ex in examples for t in ex.tokens)
        assert counts["words"] == len(got)
        assert counts["subsampled_words"] == sum(
            cap is not None and len(feats) > cap for feats in uncapped.values())
        assert cap is None or counts["subsampled_words"] > 0

    @pytest.mark.parametrize("method", ["probe", "attention"])
    def test_batch_weights_match_batches_of_one(self, mixed, method):
        bundle, model, lang, examples = mixed
        batch = [ex for ex in examples if len(ex.tokens) == 5][:6]
        with no_grad():
            regions = model.encode(np.stack([bundle.features[ex.scene_id]
                                             for ex in batch])).data
        feats, weights = localize_batch(model, lang, regions,
                                        [ex.tokens for ex in batch], method)
        for i, ex in enumerate(batch):
            feature, weight = localize_one(model, lang, bundle.features[ex.scene_id],
                                           ex.tokens, method)
            np.testing.assert_allclose(weights[i], weight, rtol=0, atol=1e-10)
            np.testing.assert_allclose(feats[i], feature, rtol=0, atol=1e-10)


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
        with pytest.raises(InputError):
            write_word_features(path, "de", {**entries, "c": (1, np.ones((1, 4)))},
                                aggregated=False)

    def test_write_shape_mismatch(self, tmp_path):
        with pytest.raises(InputError):
            write_word_features(tmp_path / "x.lxwf", "de",
                                {"w": (3, np.zeros((2, 4)))}, aggregated=False)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lxwf"
        path.write_bytes(b"XXXX" + b"\x00" * 24)
        with pytest.raises(FormatError):
            read_word_features(path)

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        entries = {"b": (2, rng.normal(size=(2, 3))), "a": (1, rng.normal(size=(1, 3)))}
        write_word_features(tmp_path / "1.lxwf", "xx", entries, aggregated=False)
        write_word_features(tmp_path / "2.lxwf", "xx", dict(reversed(entries.items())),
                            aggregated=False)
        assert (tmp_path / "1.lxwf").read_bytes() == (tmp_path / "2.lxwf").read_bytes()
