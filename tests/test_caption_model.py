import numpy as np
import pytest

from lexipivot.caption import ModelDims, MultiLingualModel
from lexipivot.corpus.vocab import BOS, EOS, PAD, CaptionedExample
from lexipivot.errors import InputError, ShapeError
from lexipivot.numerics import AdamState, Tensor, adam_update, no_grad

from conftest import build_corpus, build_model
from helpers import assert_grads_close


def small_dims(**kw):
    base = dict(feature_dim=6, embed_dim=5, attn_dim=3, num_regions=4, max_len=12)
    base.update(kw)
    return ModelDims(**base)


def example(lang, tokens, scene=0):
    return CaptionedExample(scene_id=scene, language_id=lang, tokens=tuple(tokens),
                            raw_text="")


class TestEncode:
    def test_identity_weights_give_tanh(self):
        dims = small_dims(feature_dim=5, embed_dim=5)
        model = MultiLingualModel.build(dims, {"x": 8}, seed=0)
        model.params["encoder.weight"].data[...] = np.eye(5)
        model.params["encoder.bias"].data[...] = 0.0
        feats = np.random.default_rng(0).normal(size=(4, 5))
        out = model.encode(feats)
        np.testing.assert_allclose(out.data[0], np.tanh(feats), atol=1e-12)

    def test_encoder_shared_across_languages(self):
        model = MultiLingualModel.build(small_dims(), {"x": 8, "y": 11}, seed=1)
        feats = np.random.default_rng(1).normal(size=(4, 6))
        a = model.encode(feats)
        b = model.encode(feats)  # language plays no role in encoding
        assert np.array_equal(a.data, b.data)

    def test_shape_check(self):
        model = MultiLingualModel.build(small_dims(), {"x": 8}, seed=1)
        with pytest.raises(ShapeError):
            model.encode(np.zeros((3, 6)))  # wrong region count
        with pytest.raises(ShapeError):
            model.encode(np.zeros((4, 7)))  # wrong feature dim


class TestAttend:
    def test_zero_scorer_is_uniform_mean(self):
        model = MultiLingualModel.build(small_dims(), {"x": 8}, seed=2)
        for name in ("attn.w1", "attn.b1", "attn.w2", "attn.b2"):
            model.params[name].data[...] = 0.0
        regions = model.encode(np.random.default_rng(2).normal(size=(4, 6)))
        h, _ = model.initial_state(1)
        h.data[...] = np.random.default_rng(3).normal(size=h.data.shape)
        context, alpha = model.attend(h, regions)
        np.testing.assert_allclose(alpha.data, 0.25, atol=1e-12)
        np.testing.assert_allclose(context.data[0], regions.data[0].mean(axis=0), atol=1e-12)

    def test_single_region(self):
        model = MultiLingualModel.build(small_dims(), {"x": 8}, seed=2)
        regions = model.encode(np.random.default_rng(4).normal(size=(4, 6)))
        from lexipivot.numerics import Tensor as T
        single = T(regions.data[:, 1:2, :])
        h, _ = model.initial_state(1)
        context, alpha = model.attend(h, single)
        np.testing.assert_allclose(alpha.data, [[1.0]], atol=1e-15)
        np.testing.assert_allclose(context.data[0], regions.data[0, 1], atol=1e-15)

    def test_weights_sum_to_one(self):
        model = MultiLingualModel.build(small_dims(), {"x": 8}, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(25):
            regions = model.encode(rng.normal(size=(2, 4, 6)))
            h, _ = model.initial_state(2)
            h.data[...] = rng.normal(size=h.data.shape)
            _, alpha = model.attend(h, regions)
            np.testing.assert_allclose(alpha.data.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_regions_rejected(self):
        model = MultiLingualModel.build(small_dims(), {"x": 8}, seed=5)
        with pytest.raises(ShapeError):
            model.attend(model.initial_state(1)[0], Tensor(np.zeros((1, 0, 5))))


class TestDecodeStep:
    def test_deterministic_first_step(self):
        model = MultiLingualModel.build(small_dims(), {"x": 9}, seed=7)
        feats = np.random.default_rng(7).normal(size=(4, 6))
        regions = model.encode(feats)

        def first_logits():
            logits, _, _, _ = model.step("x", model.initial_state(1), np.array([BOS]),
                                         regions)
            return logits.data.copy()

        assert np.array_equal(first_logits(), first_logits())

    def test_logit_width_is_language_vocab(self):
        model = MultiLingualModel.build(small_dims(), {"x": 9, "y": 13}, seed=7)
        feats = np.random.default_rng(8).normal(size=(4, 6))
        regions = model.encode(feats)
        state = model.initial_state(1)
        lx, _, _, _ = model.step("x", state, np.array([BOS]), regions)
        ly, _, _, _ = model.step("y", state, np.array([BOS]), regions)
        assert lx.data.shape == (1, 9)
        assert ly.data.shape == (1, 13)

    def test_unregistered_language(self):
        model = MultiLingualModel.build(small_dims(), {"x": 9}, seed=7)
        feats = np.zeros((4, 6))
        with pytest.raises(KeyError, match="zz"):
            model.step("zz", model.initial_state(1), np.array([0]), model.encode(feats))

    def test_tied_projection_same_storage(self):
        model = MultiLingualModel.build(small_dims(), {"x": 9}, seed=7)
        embed = model.embedding("x")
        feats = np.random.default_rng(9).normal(size=(4, 6))
        regions = model.encode(feats)
        logits1, _, _, _ = model.step("x", model.initial_state(1), np.array([BOS]), regions)
        embed.data[...] *= 2.0  # scaling the embedding must scale the logits path too
        logits2, _, _, _ = model.step("x", model.initial_state(1), np.array([BOS]), regions)
        assert not np.allclose(logits1.data, logits2.data)
        assert model.embedding("x") is embed


class TestSequenceLoss:
    def test_uniform_model_gives_log_vocab(self):
        model = MultiLingualModel.build(small_dims(), {"x": 10}, seed=8)
        for name, p in model.params.items():
            p.data[...] = 0.0  # zero everything: h stays 0, logits stay 0
        ex = example("x", [BOS, 5, 6, EOS])
        loss, count = model.sequence_loss([ex], {0: np.zeros((4, 6))})
        assert count == 3
        assert abs(loss.item() - np.log(10.0)) < 1e-12

    def test_duplication_keeps_mean(self):
        bundle = build_corpus()
        model = build_model(bundle)
        lang = bundle.config.languages[0]
        batch = bundle.examples[lang][:4]
        l1, _ = model.sequence_loss(batch, bundle.features)
        l2, _ = model.sequence_loss(batch + batch, bundle.features)
        assert abs(l1.item() - l2.item()) < 1e-12

    def test_mixed_language_batch(self):
        bundle = build_corpus()
        model = build_model(bundle)
        la, lb = bundle.config.languages
        batch = bundle.examples[la][:2] + bundle.examples[lb][:2]
        loss, count = model.sequence_loss(batch, bundle.features)
        assert np.isfinite(loss.item()) and count > 0

    def test_too_long_example_rejected(self):
        model = MultiLingualModel.build(small_dims(max_len=5), {"x": 10}, seed=8)
        ex = example("x", [BOS, 4, 5, 6, 7, EOS])
        with pytest.raises(InputError):
            model.sequence_loss([ex], {0: np.zeros((4, 6))})

    def test_fifty_adam_steps_halve_loss(self):
        bundle = build_corpus()
        model = build_model(bundle)
        lang = bundle.config.languages[0]
        batch = bundle.examples[lang][:6]
        from lexipivot.caption.training import _touched

        adam = AdamState(learning_rate=0.02)
        first = model.sequence_loss(batch, bundle.features)[0].item()
        for _ in range(50):
            model.params.zero_grads()
            loss, _ = model.sequence_loss(batch, bundle.features)
            loss.backward()
            adam_update(_touched(model.params), adam)
        final = model.sequence_loss(batch, bundle.features)[0].item()
        assert final <= 0.5 * first


class TestWeightSharing:
    def test_one_language_update_moves_shared_decoder(self):
        bundle = build_corpus()
        model = build_model(bundle)
        la, lb = bundle.config.languages
        feats = bundle.features[bundle.scenes[lb][0].scene_id]
        regions = model.encode(feats)
        with no_grad():
            before, _, _, _ = model.step(lb, model.initial_state(1), np.array([BOS]), regions)

        from lexipivot.caption.training import _touched

        batch = bundle.examples[la][:4]
        model.params.zero_grads()
        loss, _ = model.sequence_loss(batch, bundle.features)
        loss.backward()
        adam_update(_touched(model.params), AdamState(learning_rate=0.1))

        with no_grad():
            regions2 = model.encode(feats)
            after, _, _, _ = model.step(lb, model.initial_state(1), np.array([BOS]), regions2)
        assert not np.allclose(before.data, after.data)

    def test_embeddings_are_per_language(self):
        model = MultiLingualModel.build(small_dims(), {"x": 9, "y": 9}, seed=3)
        assert model.embedding("x") is not model.embedding("y")
        assert model.embedding("x").data.shape == model.embedding("y").data.shape


class TestGradients:
    def test_full_model_grad_check_small(self):
        bundle = build_corpus(images_per_language=4, captions_per_image=1)
        model = build_model(bundle, embed_dim=4, attn_dim=3)
        la, lb = bundle.config.languages
        batch = bundle.examples[la][:1] + bundle.examples[lb][:1]

        def f():
            return model.sequence_loss(batch, bundle.features)[0]

        params = [p for _, p in model.params.items()]
        assert_grads_close(f, params, tol=1e-4, eps=1e-5)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = MultiLingualModel.build(small_dims(), {"x": 9, "y": 12}, seed=6)
        prefix = tmp_path / "ckpt"
        model.save_checkpoint(prefix, extra={"vocab_paths": {"x": "x.tsv", "y": "y.tsv"}})
        loaded, manifest = MultiLingualModel.load_checkpoint(prefix)
        assert loaded.vocab_sizes == model.vocab_sizes
        assert loaded.dims == model.dims
        assert manifest["vocab_paths"] == {"x": "x.tsv", "y": "y.tsv"}
        for (n1, p1), (n2, p2) in zip(model.params.items(), loaded.params.items()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        model = MultiLingualModel.build(small_dims(), {"x": 9}, seed=6)
        model.save_checkpoint(tmp_path / "a")
        model.save_checkpoint(tmp_path / "b")
        assert (tmp_path / "a.lxpv").read_bytes() == (tmp_path / "b.lxpv").read_bytes()
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
