"""decoder_unroll against the per-step composition it replaced, and against
finite differences."""

from dataclasses import replace

import numpy as np
import pytest

from lexipivot.corpus.vocab import EOS, PAD
from lexipivot.errors import NumericError, ShapeError
from lexipivot.numerics import (
    LstmWeights,
    Tensor,
    cross_entropy_rows,
    decoder_unroll,
    gather_cols,
    matmul,
    no_grad,
    reshape,
)

from conftest import build_corpus, build_model, indexed
from helpers import assert_grads_close, unroll_by_steps


def group_loss(model, language, examples, features, oracle):
    """Summed NLL of one language group, unrolled by `decoder_unroll` or, with
    `oracle`, by the per-step composition: (loss, hidden states)."""
    width = max(len(ex.tokens) for ex in examples)
    tokens = np.array([ex.tokens + (PAD,) * (width - len(ex.tokens)) for ex in examples])
    embed = model.embedding(language)
    regions = model.encode(np.stack([features[ex.scene_id] for ex in examples]))
    region_part = model.attention_precompute(regions)
    args = (regions, region_part, model.lstm_weights(), model.attention_weights())
    if oracle:
        hidden = unroll_by_steps(embed, tokens, *args)
    else:
        hidden = decoder_unroll(gather_cols(embed, tokens[:, :-1].T.reshape(-1)), *args)
    targets = tokens[:, 1:].T.reshape(-1)
    mask = (targets != PAD).astype(model.dtype)
    return cross_entropy_rows(matmul(hidden, embed), targets, mask), hidden


def ragged_group(bundle, language, size=6):
    """`size` captions of the language, every other one cut to its first
    word, so the group is PAD-padded."""
    group = indexed(bundle)[language][:size]
    return [replace(ex, tokens=ex.tokens[:2] + (EOS,)) if i % 2 else ex
            for i, ex in enumerate(group)]


def grads_of(model, loss):
    model.params.zero_grads()
    loss.backward()
    return {name: None if p.grad is None else p.grad.copy()
            for name, p in model.params.items()}


def test_matches_per_step_composition(tiny_bundle):
    model = build_model(tiny_bundle)
    language = tiny_bundle.config.languages[0]
    group = ragged_group(tiny_bundle, language)
    results = [group_loss(model, language, group, tiny_bundle.features, oracle)
               for oracle in (False, True)]
    np.testing.assert_allclose(results[0][1].data, results[1][1].data, rtol=0, atol=1e-12)
    fused, steps = (grads_of(model, loss) for loss, _ in results)
    assert fused.keys() == steps.keys()
    for name in fused:
        if steps[name] is None:  # the other language's embedding
            assert fused[name] is None, name
            continue
        np.testing.assert_allclose(fused[name], steps[name], rtol=0, atol=1e-12,
                                   err_msg=name)


def test_sequence_loss_is_the_unrolled_group_loss(tiny_bundle):
    model = build_model(tiny_bundle)
    for language, size in zip(tiny_bundle.config.languages, (6, 4)):
        group = ragged_group(tiny_bundle, language, size)
        loss, count = model.sequence_loss(group, tiny_bundle.features)
        got = grads_of(model, loss)
        oracle = group_loss(model, language, group, tiny_bundle.features, True)[0]
        assert abs(loss.item() - oracle.item() / count) < 1e-12
        expected = grads_of(model, oracle)
        for name in got:
            if expected[name] is None:  # the other language's embedding
                assert got[name] is None, name
                continue
            np.testing.assert_allclose(got[name], expected[name] / count, rtol=0,
                                       atol=1e-12, err_msg=name)


def make_inputs(rng, b=3, k=4, e=3, d=5, hs=4, a=3, steps=4):
    def leaf(*shape):
        return Tensor(rng.normal(scale=0.7, size=shape), requires_grad=True)

    inputs = {"words": leaf(steps * b, e), "regions": leaf(b, k, d),
              "region_part": leaf(b * k, a),
              "lstm": LstmWeights(leaf(e + d, 4 * hs), leaf(hs, 4 * hs), leaf(4 * hs)),
              "attention": (leaf(hs + d, a), leaf(a, 1), leaf(1))}
    leaves = [inputs["words"], inputs["regions"], inputs["lstm"].w_ih, inputs["lstm"].w_hh,
              inputs["lstm"].bias, inputs["region_part"], *inputs["attention"]]
    return inputs, leaves


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    inputs, leaves = make_inputs(rng)
    w = Tensor(rng.normal(size=(4 * 3 * 4, 1)))

    def f():
        hidden = decoder_unroll(**inputs)
        return matmul(reshape(hidden, (1, hidden.data.size)), w)

    assert_grads_close(f, leaves, tol=1e-4, eps=1e-5)


def test_one_tape_node():
    inputs, leaves = make_inputs(np.random.default_rng(22))
    hidden = decoder_unroll(**inputs)
    assert hidden.shape == (4 * 3, 4)
    assert len(hidden._parents) == len(leaves)
    assert all(p._backward is None for p in hidden._parents)
    with no_grad():
        assert not decoder_unroll(**inputs).requires_grad


def test_non_finite_score_raises():
    inputs, _ = make_inputs(np.random.default_rng(23))
    inputs["attention"][1].data[0, 0] = np.nan
    with pytest.raises(NumericError, match="attention scores contain NaN or Inf"):
        decoder_unroll(**inputs)


def test_overflowing_input_product_raises():
    inputs, _ = make_inputs(np.random.default_rng(25))
    inputs["words"].data[0] = 1e200
    inputs["lstm"].w_ih.data[:3] = 1e200
    before = np.geterr()
    with pytest.raises(NumericError, match="decoder input product is not finite"):
        decoder_unroll(**inputs)
    assert np.geterr() == before


def test_shape_mismatch():
    rng = np.random.default_rng(24)
    inputs, _ = make_inputs(rng)
    with pytest.raises(ShapeError):
        decoder_unroll(**{**inputs, "words": Tensor(rng.normal(size=(13, 3)))})
    with pytest.raises(ShapeError):
        decoder_unroll(**{**inputs, "region_part": Tensor(rng.normal(size=(5, 3)))})


def test_float32_stays_float32():
    bundle = build_corpus(images_per_language=6)
    model = build_model(bundle, dtype=np.float32)
    language = bundle.config.languages[0]
    loss, hidden = group_loss(model, language, ragged_group(bundle, language, 4),
                              bundle.features, oracle=False)
    assert hidden.data.dtype == np.float32
    loss.backward()
    assert all(p.grad.dtype == np.float32 for _, p in model.params.items()
               if p.grad is not None)
