import numpy as np

from lexipivot.numerics import AdamState, ParamStore, adam_update, clip_global_norm

from conftest import build_model, indexed
from helpers import adam_by_tensor, clip_by_tensor, padded_batch


def store_with(name="w", value=1.0):
    return ParamStore({name: np.atleast_1d(np.asarray(value, dtype=np.float64))})


def test_zero_gradient_is_noop_on_values():
    store = store_with(value=[0.5, -2.0])
    before = store["w"].data.copy()
    for _ in range(3):
        store["w"].accumulate_grad(np.zeros(2))
        adam_update(store, AdamState(learning_rate=0.1))
    np.testing.assert_array_equal(store["w"].data, before)


def test_first_step_is_bias_corrected_unit_update():
    store = store_with(value=1.0)
    state = AdamState(learning_rate=0.001)
    store["w"].accumulate_grad(np.array([1.0]))
    adam_update(store, state)
    # m_hat = v_hat = 1 on step 1, so the move is lr/(1 + eps)
    assert abs(store["w"].data[0] - (1.0 - 0.001)) < 1e-8
    assert state.step == 1
    assert store["w"].grad is None


def test_quadratic_descent():
    store = store_with(value=1.0)
    state = AdamState(learning_rate=0.01)
    trace = []
    for _ in range(100):
        w = store["w"].data[0]
        store["w"].accumulate_grad(np.array([2.0 * w]))
        adam_update(store, state)
        trace.append(abs(store["w"].data[0]))
    # monotone decrease once moments warm up, and well below the start
    warm = trace[5:]
    assert all(b <= a + 1e-12 for a, b in zip(warm, warm[1:]))
    assert trace[-1] < 0.5


def test_parameter_without_gradient_is_skipped():
    """A mono-lingual batch leaves the other language's embedding without a
    gradient: it keeps its values and its moments."""
    store = ParamStore({"embed.la": np.ones(2), "embed.lb": np.ones(2)})
    state = AdamState(learning_rate=0.1)
    store["embed.la"].accumulate_grad(np.ones(2))
    adam_update(store, state)
    lb = store.span("embed.lb")
    assert state.step == 1
    assert not state.first_moment[lb].any() and not state.second_moment[lb].any()
    np.testing.assert_allclose(store["embed.la"].data, 0.9, rtol=0, atol=1e-8)
    np.testing.assert_array_equal(store["embed.lb"].data, np.ones(2))
    assert store["embed.la"].grad is None and store["embed.lb"].grad is None


def test_clip_global_norm():
    store = ParamStore({"a": np.zeros(2), "b": np.zeros(1)})
    store["a"].accumulate_grad(np.array([3.0, 0.0]))
    store["b"].accumulate_grad(np.array([4.0]))
    norm = clip_global_norm(store, 2.5)
    assert abs(norm - 5.0) < 1e-12
    clipped = np.sqrt((store["a"].grad ** 2).sum() + (store["b"].grad ** 2).sum())
    assert abs(clipped - 2.5) < 1e-12
    # below the threshold nothing changes
    norm2 = clip_global_norm(store, 100.0)
    assert abs(norm2 - 2.5) < 1e-12
    assert abs(store["b"].grad[0] - 2.0) < 1e-12


def test_matches_textbook_formula():
    rng = np.random.default_rng(0)
    store = store_with(value=rng.normal(size=6))
    state = AdamState(learning_rate=0.01)
    w = store["w"].data.copy()
    m, v = np.zeros(6), np.zeros(6)
    for t in range(1, 6):
        g = rng.normal(size=6)
        store["w"].accumulate_grad(g.copy())
        adam_update(store, state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w = w - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(store["w"].data, w, rtol=0, atol=1e-12)


def model_like_store(seed):
    """Shared weights first, then two embeddings, as `MultiLingualModel.build`
    lays them out; float32 like the pipeline's model."""
    rng = np.random.default_rng(seed)
    shapes = {"attn.w1": (6, 3), "attn.w2": (3, 1), "encoder.weight": (4, 3),
              "lstm.bias": (12,), "embed.la": (3, 7), "embed.lb": (3, 5)}
    return ParamStore({name: rng.normal(size=shape).astype(np.float32)
                       for name, shape in shapes.items()})


def test_flat_update_equals_per_tensor_oracle_bitwise():
    """Five float32 steps, clipping active, alternating the language whose
    embedding gets a gradient: values, norms and moments equal the
    per-tensor Adam and clip bit for bit."""
    flat, oracle = model_like_store(1), model_like_store(1)
    state, moments = AdamState(learning_rate=0.01), {}
    rng = np.random.default_rng(2)
    for step in range(1, 6):
        language = ("la", "lb")[step % 2]
        for name, p in flat.items():
            if name.startswith("embed.") and name != f"embed.{language}":
                continue
            g = rng.normal(scale=3.0, size=p.data.shape).astype(np.float32)
            p.accumulate_grad(g)
            oracle[name].accumulate_grad(g.copy())
        norm = clip_global_norm(flat, 1.0)
        assert norm > 1.0  # clipping is active
        assert norm == clip_by_tensor(oracle, 1.0)
        adam_update(flat, state)
        adam_by_tensor(oracle, moments, step, 0.01)
        for name, p in flat.items():
            assert p.data.dtype == np.float32
            assert p.data.tobytes() == oracle[name].data.tobytes(), name
            zeros = np.zeros_like(p.data)
            m, v = moments.get(name, (zeros, zeros))  # none before a first gradient
            span = flat.span(name)
            assert state.first_moment[span].tobytes() == m.tobytes(), name
            assert state.second_moment[span].tobytes() == v.tobytes(), name


def test_batch_of_one_language_leaves_the_other_embedding_bitwise(tiny_bundle):
    """Training steps on batches of `la` move no bit of `embed.lb`, its first
    moment or its second moment."""
    model = build_model(tiny_bundle, dtype=np.float32)
    la, lb = tiny_bundle.config.languages
    examples, state = indexed(tiny_bundle), AdamState(learning_rate=0.01)

    def train_step(language):
        model.params.zero_grads()
        loss, _ = model.sequence_loss(language, *padded_batch(examples[language][:4],
                                                              tiny_bundle.regions[language]))
        loss.backward()
        clip_global_norm(model.params, 5.0)
        adam_update(model.params, state)

    train_step(lb)  # gives `embed.lb` its moments
    span = model.params.span(f"embed.{lb}")
    flats = (model.params.data, state.first_moment, state.second_moment)
    before = [flat[span].copy() for flat in flats]
    la_before = model.embedding(la).data.copy()
    train_step(la)
    train_step(la)
    assert all(flat[span].tobytes() == old.tobytes() for flat, old in zip(flats, before))
    assert before[1].any() and not np.array_equal(model.embedding(la).data, la_before)
