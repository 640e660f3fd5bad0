import numpy as np
import pytest

from lexipivot.caption import ModelDims, MultiLingualModel
from lexipivot.errors import NumericError, ShapeError
from lexipivot.numerics import Tensor, additive_attention, matmul, reshape

from helpers import assert_grads_close


def make_inputs(rng, b=3, k=4, h=5, d=6, a=3):
    def leaf(*shape):
        return Tensor(rng.normal(scale=0.7, size=shape), requires_grad=True)

    return {"h_prev": leaf(b, h), "regions": leaf(b, k, d), "region_part": leaf(b * k, a),
            "w1": leaf(h + d, a), "w2": leaf(a, 1), "b2": leaf(1)}


def reference(h_prev, regions, region_part, w1, w2, b2):
    """The composite formulas the fused op replaced: row_slice, repeat_rows,
    tanh, matmul, softmax and the region-weighted sum, in plain NumPy."""
    b, k, _ = regions.shape
    hs = h_prev.shape[1]
    h_part = np.repeat(h_prev @ w1[:hs], k, axis=0)
    scores = (np.tanh(region_part + h_part) @ w2 + b2).reshape(b, k)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    alpha = e / e.sum(axis=-1, keepdims=True)
    return np.einsum("bk,bkd->bd", alpha, regions), alpha


def weighted(context, w):
    flat = reshape(context, (1, context.data.size))
    return matmul(flat, Tensor(w.reshape(-1, 1)))


def test_matches_composite_reference():
    rng = np.random.default_rng(0)
    for b, k in ((1, 1), (3, 4), (5, 9)):
        inputs = make_inputs(rng, b=b, k=k)
        context, alpha = additive_attention(**inputs)
        ref_context, ref_alpha = reference(**{n: t.data for n, t in inputs.items()})
        np.testing.assert_allclose(context.data, ref_context, rtol=0, atol=1e-12)
        np.testing.assert_allclose(alpha.data, ref_alpha, rtol=0, atol=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    inputs = make_inputs(rng)
    w = rng.normal(size=(3, 6))

    def f():
        return weighted(additive_attention(**inputs)[0], w)

    names = ("h_prev", "regions", "region_part", "w1", "w2", "b2")
    assert_grads_close(f, [inputs[n] for n in names], tol=1e-6)


def test_only_hidden_rows_of_w1_get_gradient():
    inputs = make_inputs(np.random.default_rng(2))
    weighted(additive_attention(**inputs)[0], np.ones(18)).backward()
    hs = inputs["h_prev"].shape[1]
    assert np.any(inputs["w1"].grad[:hs] != 0.0)
    assert np.all(inputs["w1"].grad[hs:] == 0.0)


def test_one_tape_node_and_plain_weights():
    inputs = make_inputs(np.random.default_rng(3))
    context, alpha = additive_attention(**inputs)
    assert len(context._parents) == 6
    assert all(p.requires_grad and p._backward is None for p in context._parents)
    assert not alpha.requires_grad


@pytest.mark.parametrize("name,bad", [("region_part", np.nan), ("h_prev", np.nan),
                                      ("w2", np.nan), ("w2", np.inf), ("b2", np.nan),
                                      ("b2", -np.inf)])
def test_non_finite_score_raises(name, bad):
    inputs = make_inputs(np.random.default_rng(4))
    inputs[name].data.reshape(-1)[0] = bad
    with pytest.raises(NumericError, match="attention scores"):
        additive_attention(**inputs)


def test_shape_mismatch():
    rng = np.random.default_rng(5)
    inputs = make_inputs(rng)
    inputs["region_part"] = Tensor(rng.normal(size=(5, 3)))
    with pytest.raises(ShapeError):
        additive_attention(**inputs)


def test_model_attend_matches_reference():
    dims = ModelDims(feature_dim=6, embed_dim=5, attn_dim=3, num_regions=4, max_len=12)
    model = MultiLingualModel.build(dims, {"x": 8}, seed=3)
    rng = np.random.default_rng(6)
    regions = model.encode(rng.normal(size=(2, 4, 6)))
    h, _ = model.initial_state(2)
    h.data[...] = rng.normal(size=h.data.shape)
    context, alpha = model.attend(h, regions, model.attention_precompute(regions))
    p = {n: model.params[n].data for n in ("attn.w1", "attn.b1", "attn.w2", "attn.b2")}
    region_part = regions.data.reshape(8, 5) @ p["attn.w1"][5:] + p["attn.b1"]
    ref_context, ref_alpha = reference(h.data, regions.data, region_part,
                                       p["attn.w1"], p["attn.w2"], p["attn.b2"])
    np.testing.assert_allclose(context.data, ref_context, rtol=0, atol=1e-12)
    np.testing.assert_allclose(alpha.data, ref_alpha, rtol=0, atol=1e-12)
