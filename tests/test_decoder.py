"""caption_loss against a `model.step` loop and the masked cross-entropy in
NumPy, and its gradients against finite differences."""

from dataclasses import replace

import numpy as np
import pytest

from lexipivot.corpus.vocab import EOS, PAD
from lexipivot.errors import NumericError, ShapeError
from lexipivot.numerics import caption_loss, no_grad

from conftest import build_corpus, build_model, indexed
from helpers import assert_grads_close, padded_batch, unroll_by_steps


def fused_loss(model, language, tokens, features):
    """`caption_loss` on the model's weights: (loss, count)."""
    p = model.params
    return caption_loss(np.asarray(features, dtype=model.dtype), tokens, PAD,
                        (p["encoder.weight"], p["encoder.bias"]), model.embedding(language),
                        model.lstm_weights(), (p["attn.w1"], p["attn.b1"], p["attn.w2"]))


def oracle_loss(model, language, tokens, features):
    """The same loss value from `unroll_by_steps`, the tied logits and the
    cross-entropy of each non-pad target, averaged."""
    logits = unroll_by_steps(model, language, tokens, features) \
        @ model.embedding(language).data
    targets = tokens[:, 1:].T.reshape(-1)
    top = logits.max(axis=1)
    nll = np.log(np.exp(logits - top[:, None]).sum(axis=1)) + top \
        - logits[np.arange(len(targets)), targets]
    return nll[targets != PAD].mean()


def ragged_group(bundle, language, size=6):
    """`size` captions of the language, every other one cut to its first
    word, so the group is PAD-padded."""
    group = indexed(bundle)[language][:size]
    return [replace(ex, tokens=ex.tokens[:2] + (EOS,)) if i % 2 else ex
            for i, ex in enumerate(group)]


def test_matches_per_step_composition(tiny_bundle):
    model = build_model(tiny_bundle)
    language = tiny_bundle.config.languages[0]
    tokens, features = padded_batch(ragged_group(tiny_bundle, language),
                                    tiny_bundle.regions[language])
    assert (tokens == PAD).any() and (tokens[:, -1] != PAD).any()
    loss, count = fused_loss(model, language, tokens, features)
    assert count == int((tokens[:, 1:] != PAD).sum())
    assert abs(loss.item() - oracle_loss(model, language, tokens, features)) < 1e-12


def test_sequence_loss_is_the_unrolled_group_loss(tiny_bundle):
    model = build_model(tiny_bundle)
    for language, size in zip(tiny_bundle.config.languages, (6, 4)):
        batch = padded_batch(ragged_group(tiny_bundle, language, size),
                             tiny_bundle.regions[language])
        loss, count = model.sequence_loss(language, *batch)
        assert count == int((batch[0][:, 1:] != PAD).sum())
        assert abs(loss.item() - oracle_loss(model, language, *batch)) < 1e-12


def test_gradients_match_finite_differences(tiny_bundle):
    """Every parameter of a small float64 model, attention on, on a batch of
    PAD-padded captions of different lengths."""
    model = build_model(tiny_bundle, embed_dim=4, attn_dim=3)
    language = tiny_bundle.config.languages[1]
    tokens, features = padded_batch(ragged_group(tiny_bundle, language, 3),
                                    tiny_bundle.regions[language])
    touched = [p for name, p in model.params.items()
               if not name.startswith("embed.") or name == f"embed.{language}"]

    def f():
        return fused_loss(model, language, tokens, features)[0]

    assert_grads_close(f, touched, tol=1e-4, eps=1e-5)


def test_every_parameter_moves_the_loss(tiny_bundle):
    """A random perturbation of each parameter the batch uses changes its
    float64 loss by more than rounding. A parameter the loss cannot see,
    such as a bias shared by every attention score before the softmax, has
    an exact gradient of zero, so a gradient check passes for it (both of
    its sides are about 0); this test fails for it. At initialisation the
    scorer's tanh is nearly linear, so the smallest live change (attn.b1's)
    is about 1e-8 on a loss of about 2.5: the bound is rounding, not a
    typical change."""
    model = build_model(tiny_bundle)
    language = tiny_bundle.config.languages[0]
    batch = padded_batch(ragged_group(tiny_bundle, language), tiny_bundle.regions[language])
    rng = np.random.default_rng(13)
    used = [(name, p) for name, p in model.params.items()
            if not name.startswith("embed.") or name == f"embed.{language}"]
    unmoved = []
    with no_grad():
        loss = model.sequence_loss(language, *batch)[0].item()
        for name, p in used:
            saved = p.data.copy()
            p.data += rng.normal(scale=1e-3, size=p.data.shape)
            moved = abs(model.sequence_loss(language, *batch)[0].item() - loss)
            p.data[...] = saved
            if moved <= 1e-12 * abs(loss):
                unmoved.append((name, moved))
    assert not unmoved


def test_one_tape_node(tiny_bundle):
    model = build_model(tiny_bundle)
    language = tiny_bundle.config.languages[0]
    batch = padded_batch(ragged_group(tiny_bundle, language),
                                    tiny_bundle.regions[language])
    loss, _ = model.sequence_loss(language, *batch)
    assert loss.shape == () and loss._backward is not None
    with no_grad():
        assert not model.sequence_loss(language, *batch)[0].requires_grad


def test_non_finite_score_raises(tiny_bundle):
    model = build_model(tiny_bundle)
    language = tiny_bundle.config.languages[0]
    model.params["attn.w2"].data[0, 0] = np.nan
    with pytest.raises(NumericError, match="attention scores contain NaN or Inf"):
        model.sequence_loss(language, *padded_batch(ragged_group(tiny_bundle, language),
                                                    tiny_bundle.regions[language]))


def test_overflowing_input_product_raises(tiny_bundle):
    model = build_model(tiny_bundle)
    language = tiny_bundle.config.languages[0]
    model.embedding(language).data[...] = 1e200
    model.params["lstm.w_ih"].data[:3] = 1e200
    before = np.geterr()
    with pytest.raises(NumericError, match="decoder input product is not finite"):
        model.sequence_loss(language, *padded_batch(ragged_group(tiny_bundle, language),
                                                    tiny_bundle.regions[language]))
    assert np.geterr() == before


def test_shape_mismatch(tiny_bundle):
    """The features are checked against the model's dimensions before the
    loss runs."""
    model = build_model(tiny_bundle)
    language = tiny_bundle.config.languages[0]
    tokens, features = padded_batch(ragged_group(tiny_bundle, language),
                                    tiny_bundle.regions[language])
    with pytest.raises(ShapeError, match="expected region features"):
        model.sequence_loss(language, tokens, features[:, :-1])
    with pytest.raises(ShapeError, match="expected region features"):
        model.sequence_loss(language, tokens, features[..., :-1])


def test_float32_stays_float32():
    bundle = build_corpus(images_per_language=6)
    model = build_model(bundle, dtype=np.float32)
    language = bundle.config.languages[0]
    loss, _ = model.sequence_loss(language, *padded_batch(ragged_group(bundle, language, 4),
                                                          bundle.regions[language]))
    assert loss.data.dtype == np.float32
    loss.backward()
    assert all(p.grad.dtype == np.float32 for _, p in model.params.items()
               if p.grad is not None)

