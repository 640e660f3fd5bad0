import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexipivot.caption import ModelDims, MultiLingualModel
from lexipivot.errors import NumericError
from lexipivot.numerics.attention import attention_backward, attention_forward

from helpers import assert_array_grads_close


def make_inputs(rng, b=3, k=4, h=5, d=6, a=3):
    def leaf(*shape):
        return rng.normal(scale=0.7, size=shape)

    return {"h_prev": leaf(b, h), "regions": leaf(b, k, d), "region_part": leaf(b * k, a),
            "w1": leaf(h + d, a), "w2": leaf(a, 1)}


def attend(h_prev, regions, region_part, w1, w2):
    """`attention_forward` as the model calls it: (context [B,D], alpha [B,K])."""
    b, k, _ = regions.shape
    h_part = h_prev @ w1[:h_prev.shape[1]]
    _, alpha, context = attention_forward(h_part, region_part.reshape(b, k, -1), regions, w2)
    return context, alpha


def reference(h_prev, regions, region_part, w1, w2):
    """The composite formulas the fused kernel replaced: row_slice,
    repeat_rows, tanh, matmul, softmax and the region-weighted sum, in plain
    NumPy."""
    b, k, _ = regions.shape
    hs = h_prev.shape[1]
    h_part = np.repeat(h_prev @ w1[:hs], k, axis=0)
    scores = (np.tanh(region_part + h_part) @ w2).reshape(b, k)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    alpha = e / e.sum(axis=-1, keepdims=True)
    return np.einsum("bk,bkd->bd", alpha, regions), alpha


def test_matches_composite_reference():
    rng = np.random.default_rng(0)
    for b, k in ((1, 1), (3, 4), (5, 9)):
        inputs = make_inputs(rng, b=b, k=k)
        context, alpha = attend(**inputs)
        ref_context, ref_alpha = reference(**inputs)
        np.testing.assert_allclose(context, ref_context, rtol=0, atol=1e-12)
        np.testing.assert_allclose(alpha, ref_alpha, rtol=0, atol=1e-12)


def test_gradients_match_finite_differences():
    """`attention_backward`'s score and pre-activation gradients, turned into
    the input gradients as `caption_loss` turns them, against central
    differences of `attention_forward`."""
    rng = np.random.default_rng(1)
    b, k, a, d = 3, 4, 3, 6
    h_part, region_part = rng.normal(size=(b, a)), rng.normal(size=(b, k, a))
    regions, w2 = rng.normal(size=(b, k, d)), rng.normal(size=(a, 1))
    w = rng.normal(size=(b, d))

    def f():
        return (w * attention_forward(h_part, region_part, regions, w2)[2]).sum()

    u, alpha, _ = attention_forward(h_part, region_part, regions, w2)
    dscores, dpre = attention_backward(w, u, alpha, regions, w2)
    assert_array_grads_close(
        f, [h_part, region_part, regions, w2],
        [dpre.sum(axis=1), dpre, alpha[:, :, None] * w[:, None, :],
         u.reshape(b * k, a).T @ dscores.reshape(b * k, 1)])


@pytest.mark.parametrize("name,bad", [("region_part", np.nan), ("h_prev", np.nan),
                                      ("w2", np.nan), ("w2", np.inf)])
def test_non_finite_score_raises(name, bad):
    inputs = make_inputs(np.random.default_rng(4))
    inputs[name].reshape(-1)[0] = bad
    with pytest.raises(NumericError, match="attention scores"):
        attend(**inputs)


def test_model_attend_matches_reference():
    dims = ModelDims(feature_dim=6, embed_dim=5, attn_dim=3, num_regions=4)
    model = MultiLingualModel.build(dims, {"x": 8}, seed=3)
    rng = np.random.default_rng(6)
    regions = model.encode(rng.normal(size=(2, 4, 6)))
    h = rng.normal(size=(2, 5))
    context, alpha = model.attend(h, regions, model.attention_precompute(regions))
    p = {n: model.params[n].data for n in ("attn.w1", "attn.b1", "attn.w2")}
    region_part = regions.reshape(8, 5) @ p["attn.w1"][5:] + p["attn.b1"]
    ref_context, ref_alpha = reference(h, regions, region_part, p["attn.w1"], p["attn.w2"])
    np.testing.assert_allclose(context, ref_context, rtol=0, atol=1e-12)
    np.testing.assert_allclose(alpha, ref_alpha, rtol=0, atol=1e-12)


def test_batched_matches_single():
    """Each caption's weights and context depend on its own rows only."""
    inputs = make_inputs(np.random.default_rng(7), b=4, k=3)
    context, alpha = attend(**inputs)
    region_part = inputs["region_part"].reshape(4, 3, -1)
    for i in range(4):
        one = {**inputs, "h_prev": inputs["h_prev"][i:i + 1],
               "regions": inputs["regions"][i:i + 1], "region_part": region_part[i]}
        c_i, a_i = attend(**one)
        np.testing.assert_allclose(context[i:i + 1], c_i, rtol=0, atol=1e-12)
        np.testing.assert_allclose(alpha[i:i + 1], a_i, rtol=0, atol=1e-12)


def test_forward_leaves_its_inputs_unchanged():
    """Every decode step reuses the regions and their precomputed half of the
    scorer, so the kernel must not write into them."""
    rng = np.random.default_rng(8)
    h_part, region_part = rng.normal(size=(2, 3)), rng.normal(size=(2, 4, 3))
    regions, w2 = rng.normal(size=(2, 4, 5)), rng.normal(size=(3, 1))
    inputs = (h_part, region_part, regions, w2)
    copies = [x.copy() for x in inputs]
    first = attention_forward(*inputs)
    second = attention_forward(*inputs)
    for x, copy in zip(inputs, copies, strict=True):
        assert np.array_equal(x, copy)
    for a, b in zip(first, second, strict=True):
        assert np.array_equal(a, b)


def test_model_attend_reads_only_hidden_rows_of_w1():
    """`attend` takes the region half of the scorer from
    `attention_precompute`; the region rows of w1 do not reach it again."""
    dims = ModelDims(feature_dim=6, embed_dim=5, attn_dim=3, num_regions=4)
    model = MultiLingualModel.build(dims, {"x": 8}, seed=3)
    rng = np.random.default_rng(9)
    regions = model.encode(rng.normal(size=(2, 4, 6)))
    region_part = model.attention_precompute(regions)
    h = rng.normal(size=(2, 5))
    before = model.attend(h, regions, region_part)
    model.params["attn.w1"].data[5:] += 1.0
    after = model.attend(h, regions, region_part)
    for a, b in zip(before, after, strict=True):
        assert np.array_equal(a, b)
    model.params["attn.w1"].data[:5] += 1.0
    assert not np.allclose(model.attend(h, regions, region_part)[1], before[1])


def test_float32_stays_float32():
    inputs = {name: x.astype(np.float32)
              for name, x in make_inputs(np.random.default_rng(10)).items()}
    context, alpha = attend(**inputs)
    assert context.dtype == np.float32 and alpha.dtype == np.float32
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-6)


def _score_attention(region_part, regions, s):
    """`attention_forward` whose scores are s * tanh(region_part) (a
    one-unit scorer with a zero hidden part): (u, alpha, context)."""
    b, k, _ = regions.shape
    return attention_forward(np.zeros((b, 1)), region_part.reshape(b, k, 1), regions,
                             np.array([[s]]))


def softmax(scores, shift=0.0):
    """Attention weights for scores [B,K] (or [K]) plus `shift`: region_part =
    artanh(scores / s) reproduces the shifted scores to a few ulps of s."""
    x = np.atleast_2d(np.asarray(scores, dtype=np.float64)) + float(shift)
    b, k = x.shape
    s = 2.0 * np.max(np.abs(x), initial=0.0) + 1.0
    return _score_attention(np.arctanh(x / s), np.zeros((b, k, 1)), s)[1]


class TestSoftmax:
    """The softmax inside the attention kernel."""

    def test_uniform(self):
        np.testing.assert_allclose(softmax([7.3, 7.3, 7.3, 7.3]), [[0.25] * 4], atol=1e-12)

    def test_analytic(self):
        np.testing.assert_allclose(softmax(np.log([1.0, 3.0])), [[0.25, 0.75]], atol=1e-12)

    def test_shift_invariance(self):
        x = np.array([0.3, -1.2, 5.0, 2.2])
        np.testing.assert_allclose(softmax(x), softmax(x, shift=100.0), atol=1e-9)

    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            softmax([1.0, float("nan")])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=512))
    @settings(max_examples=80, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, values):
        x = np.array(values)
        out = softmax(x)
        assert abs(out.sum() - 1.0) < 1e-9
        shifted = softmax(x, shift=100.0)
        assert np.max(np.abs(out - shifted)) < 1e-9

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        region_part = rng.normal(size=(2, 5, 1))
        regions = rng.normal(size=(2, 5, 3))
        w = rng.normal(size=(2, 3))

        def f():
            return (w * _score_attention(region_part, regions, 3.0)[2]).sum()

        u, alpha, _ = _score_attention(region_part, regions, 3.0)
        dscores, dpre = attention_backward(w, u, alpha, regions, np.array([[3.0]]))
        # the gradient of a shift shared by every score is this sum, and it
        # is zero: the softmax cannot see such a shift, so a bias added to
        # the scores would be a parameter the loss never moves
        assert abs(dscores.sum()) < 1e-12
        assert_array_grads_close(f, [region_part], [dpre])
