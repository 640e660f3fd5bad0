import numpy as np
import pytest

from lexipivot.caption import ModelDims, MultiLingualModel
from lexipivot.corpus.vocab import BOS, EOS, CaptionedExample
from lexipivot.errors import ShapeError
from lexipivot.numerics import AdamState, adam_update

from conftest import build_corpus, build_model, indexed
from helpers import assert_grads_close, padded_batch


def small_dims(**kw):
    base = dict(feature_dim=6, embed_dim=5, attn_dim=3, num_regions=4)
    base.update(kw)
    return ModelDims(**base)


def example(lang, tokens, image_row=0):
    return CaptionedExample(image_row=image_row, language_id=lang, tokens=tuple(tokens))


def attend(model, h, regions):
    return model.attend(h, regions, model.attention_precompute(regions))


def step(model, language, state, prev_tokens, regions):
    return model.step(language, state, prev_tokens, regions,
                      model.attention_precompute(regions))


class TestEncode:
    def test_identity_weights_give_tanh(self):
        dims = small_dims(feature_dim=5, embed_dim=5)
        model = MultiLingualModel.build(dims, {"x": 8}, seed=0)
        model.params["encoder.weight"].data[...] = np.eye(5)
        model.params["encoder.bias"].data[...] = 0.0
        feats = np.random.default_rng(0).normal(size=(1, 4, 5))
        out = model.encode(feats)
        np.testing.assert_allclose(out, np.tanh(feats), atol=1e-12)

    def test_encoder_shared_across_languages(self):
        model = MultiLingualModel.build(small_dims(), {"x": 8, "y": 11}, seed=1)
        feats = np.random.default_rng(1).normal(size=(1, 4, 6))
        a = model.encode(feats)
        b = model.encode(feats)  # language plays no role in encoding
        assert np.array_equal(a, b)

    def test_shape_check(self):
        model = MultiLingualModel.build(small_dims(), {"x": 8}, seed=1)
        with pytest.raises(ShapeError):
            model.encode(np.zeros((1, 3, 6)))  # wrong region count
        with pytest.raises(ShapeError):
            model.encode(np.zeros((1, 4, 7)))  # wrong feature dim
        with pytest.raises(ShapeError):
            model.encode(np.zeros((4, 6)))  # one image without its batch axis


class TestAttend:
    def test_zero_scorer_is_uniform_mean(self):
        model = MultiLingualModel.build(small_dims(), {"x": 8}, seed=2)
        for name in ("attn.w1", "attn.b1", "attn.w2"):
            model.params[name].data[...] = 0.0
        regions = model.encode(np.random.default_rng(2).normal(size=(1, 4, 6)))
        h = np.random.default_rng(3).normal(size=(1, 5))
        context, alpha = attend(model, h, regions)
        np.testing.assert_allclose(alpha, 0.25, atol=1e-12)
        np.testing.assert_allclose(context[0], regions[0].mean(axis=0), atol=1e-12)

    def test_single_region(self):
        model = MultiLingualModel.build(small_dims(), {"x": 8}, seed=2)
        regions = model.encode(np.random.default_rng(4).normal(size=(1, 4, 6)))
        h, _ = model.initial_state(1)
        context, alpha = attend(model, h, regions[:, 1:2, :])
        np.testing.assert_allclose(alpha, [[1.0]], atol=1e-15)
        np.testing.assert_allclose(context[0], regions[0, 1], atol=1e-15)

    def test_weights_sum_to_one(self):
        model = MultiLingualModel.build(small_dims(), {"x": 8}, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(25):
            regions = model.encode(rng.normal(size=(2, 4, 6)))
            _, alpha = attend(model, rng.normal(size=(2, 5)), regions)
            np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-9)


class TestDecodeStep:
    def test_deterministic_first_step(self):
        model = MultiLingualModel.build(small_dims(), {"x": 9}, seed=7)
        feats = np.random.default_rng(7).normal(size=(1, 4, 6))
        regions = model.encode(feats)

        def first_step():
            (h, c), alpha, context = step(model, "x", model.initial_state(1), np.array([BOS]),
                                          regions)
            return h, c, alpha, context

        for a, b in zip(first_step(), first_step(), strict=True):
            assert np.array_equal(a, b)

    def test_language_selects_the_input_embedding(self):
        """The same token of two languages feeds each language's own
        embedding column; the attention before it does not see the
        language."""
        model = MultiLingualModel.build(small_dims(), {"x": 9, "y": 13}, seed=7)
        feats = np.random.default_rng(8).normal(size=(1, 4, 6))
        regions = model.encode(feats)
        state = model.initial_state(1)
        (hx, cx), alpha_x, context_x = step(model, "x", state, np.array([BOS]), regions)
        (hy, cy), alpha_y, context_y = step(model, "y", state, np.array([BOS]), regions)
        assert hx.shape == hy.shape == cx.shape == (1, 5)
        assert np.array_equal(alpha_x, alpha_y) and np.array_equal(context_x, context_y)
        assert not np.allclose(hx, hy) and not np.allclose(cx, cy)

    def test_unregistered_language(self):
        model = MultiLingualModel.build(small_dims(), {"x": 9}, seed=7)
        feats = np.zeros((1, 4, 6))
        with pytest.raises(KeyError, match="zz"):
            step(model, "zz", model.initial_state(1), np.array([0]), model.encode(feats))

    def test_step_reads_the_live_embedding(self):
        model = MultiLingualModel.build(small_dims(), {"x": 9}, seed=7)
        embed = model.embedding("x")
        feats = np.random.default_rng(9).normal(size=(1, 4, 6))
        regions = model.encode(feats)
        (h1, _), _, _ = step(model, "x", model.initial_state(1), np.array([BOS]), regions)
        embed.data[...] *= 2.0  # scaling the embedding must change the step's input
        (h2, _), _, _ = step(model, "x", model.initial_state(1), np.array([BOS]), regions)
        assert not np.allclose(h1, h2)
        assert model.embedding("x") is embed


def _forward_pieces(model):
    """Each forward piece run once on a two-image batch, by name."""
    feats = np.random.default_rng(10).normal(size=(2, 4, 6))
    regions = model.encode(feats)
    region_part = model.attention_precompute(regions)
    state = model.initial_state(2)
    (h, c), alpha, context = model.step("x", state, np.array([BOS, 3]), regions,
                                        region_part)
    return {"encode": (regions,), "attention_precompute": (region_part,),
            "attend": model.attend(state[0], regions, region_part),
            "initial_state": state, "step": (h, c, alpha, context)}


class TestForwardPieces:
    """What extraction decodes with runs on plain arrays, in the model's
    dtype, and builds nothing on the tape."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("piece", ["encode", "attention_precompute", "attend",
                                       "initial_state", "step"])
    def test_returns_arrays_of_the_model_dtype(self, piece, dtype):
        model = MultiLingualModel.build(small_dims(), {"x": 9}, seed=11, dtype=dtype)
        for out in _forward_pieces(model)[piece]:
            assert type(out) is np.ndarray
            assert out.dtype == dtype
        assert all(p.grad is None for _, p in model.params.items())

    def test_step_leaves_its_inputs_unchanged(self):
        """A decode reuses a parent's state for each of its children, and the
        regions for every step, so the step must not write into them."""
        model = MultiLingualModel.build(small_dims(), {"x": 9}, seed=12)
        rng = np.random.default_rng(12)
        regions = model.encode(rng.normal(size=(2, 4, 6)))
        region_part = model.attention_precompute(regions)
        state = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
        inputs = (*state, regions, region_part)
        copies = [x.copy() for x in inputs]
        first = model.step("x", state, np.array([BOS, 4]), regions, region_part)
        for x, copy in zip(inputs, copies, strict=True):
            assert np.array_equal(x, copy)
        second = model.step("x", state, np.array([BOS, 4]), regions, region_part)
        assert np.array_equal(first[0][0], second[0][0])
        assert np.array_equal(first[0][1], second[0][1])


class TestSequenceLoss:
    def test_uniform_model_gives_log_vocab(self):
        model = MultiLingualModel.build(small_dims(), {"x": 10}, seed=8)
        for name, p in model.params.items():
            p.data[...] = 0.0  # zero everything: h stays 0, logits stay 0
        ex = example("x", [BOS, 5, 6, EOS])
        loss, count = model.sequence_loss("x", *padded_batch([ex], np.zeros((1, 4, 6))))
        assert count == 3
        assert abs(loss.item() - np.log(10.0)) < 1e-12

    def test_duplication_keeps_mean(self):
        bundle = build_corpus()
        model = build_model(bundle)
        lang = bundle.config.languages[0]
        batch = indexed(bundle)[lang][:4]
        l1, _ = model.sequence_loss(lang, *padded_batch(batch, bundle.regions[lang]))
        l2, _ = model.sequence_loss(lang, *padded_batch(batch + batch, bundle.regions[lang]))
        assert abs(l1.item() - l2.item()) < 1e-12

    def test_fifty_adam_steps_halve_loss(self):
        bundle = build_corpus()
        model = build_model(bundle)
        lang = bundle.config.languages[0]
        batch = indexed(bundle)[lang][:6]
        adam = AdamState(learning_rate=0.02)
        inputs = padded_batch(batch, bundle.regions[lang])
        first = model.sequence_loss(lang, *inputs)[0].item()
        for _ in range(50):
            model.params.zero_grads()
            loss, _ = model.sequence_loss(lang, *inputs)
            loss.backward()
            adam_update(model.params, adam)
        final = model.sequence_loss(lang, *inputs)[0].item()
        assert final <= 0.5 * first


class TestWeightSharing:
    def test_one_language_update_moves_shared_decoder(self):
        bundle = build_corpus()
        model = build_model(bundle)
        la, lb = bundle.config.languages
        feats = bundle.regions[lb][:1]
        (before, _), _, _ = step(model, lb, model.initial_state(1), np.array([BOS]),
                                 model.encode(feats))

        batch = indexed(bundle)[la][:4]
        model.params.zero_grads()
        loss, _ = model.sequence_loss(la, *padded_batch(batch, bundle.regions[la]))
        loss.backward()
        adam_update(model.params, AdamState(learning_rate=0.1))

        (after, _), _, _ = step(model, lb, model.initial_state(1), np.array([BOS]),
                                model.encode(feats))
        assert not np.allclose(before, after)

    def test_embeddings_are_per_language(self):
        model = MultiLingualModel.build(small_dims(), {"x": 9, "y": 9}, seed=3)
        assert model.embedding("x") is not model.embedding("y")
        assert model.embedding("x").data.shape == model.embedding("y").data.shape


class TestGradients:
    def test_full_model_grad_check_small(self):
        bundle = build_corpus(images_per_language=4, captions_per_image=1)
        model = build_model(bundle, embed_dim=4, attn_dim=3)
        for lang in bundle.config.languages:  # together, the two check every weight
            batch = padded_batch(indexed(bundle)[lang][:1], bundle.regions[lang])
            touched = [p for name, p in model.params.items()
                       if not name.startswith("embed.") or name == f"embed.{lang}"]

            def f():
                return model.sequence_loss(lang, *batch)[0]

            assert_grads_close(f, touched, tol=1e-4, eps=1e-5)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        """The weights give every size but K; the sidecar holds K and the
        caller's extra keys, and restates nothing the weights hold."""
        model = MultiLingualModel.build(small_dims(), {"x": 9, "y": 12}, seed=6,
                                        dtype=np.float32)
        prefix = tmp_path / "ckpt"
        model.save_checkpoint(prefix, extra={"best_epoch": 3})
        loaded, manifest = MultiLingualModel.load_checkpoint(prefix)
        assert loaded.vocab_sizes == model.vocab_sizes
        assert loaded.dims == model.dims
        assert loaded.dtype is np.float32
        assert manifest == {"checkpoint_version": 4, "num_regions": 4, "best_epoch": 3}
        for (n1, p1), (n2, p2) in zip(model.params.items(), loaded.params.items()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        model = MultiLingualModel.build(small_dims(), {"x": 9}, seed=6, dtype=np.float32)
        model.save_checkpoint(tmp_path / "a")
        model.save_checkpoint(tmp_path / "b")
        assert (tmp_path / "a.lxpv").read_bytes() == (tmp_path / "b.lxpv").read_bytes()
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
