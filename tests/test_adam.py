import numpy as np

from lexipivot.numerics import AdamState, ParamStore, Tensor, adam_update, clip_global_norm


def store_with(name="w", value=1.0):
    store = ParamStore()
    store.add(name, Tensor(np.atleast_1d(np.asarray(value, dtype=np.float64))))
    return store


def test_zero_gradient_is_noop_on_values():
    store = store_with(value=[0.5, -2.0])
    before = store["w"].data.copy()
    for _ in range(3):
        store["w"].grad = np.zeros(2)
        adam_update(store, AdamState(learning_rate=0.1))
    np.testing.assert_array_equal(store["w"].data, before)


def test_first_step_is_bias_corrected_unit_update():
    store = store_with(value=1.0)
    state = AdamState(learning_rate=0.001)
    store["w"].grad = np.array([1.0])
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
        store["w"].grad = np.array([2.0 * w])
        adam_update(store, state)
        trace.append(abs(store["w"].data[0]))
    # monotone decrease once moments warm up, and well below the start
    warm = trace[5:]
    assert all(b <= a + 1e-12 for a, b in zip(warm, warm[1:]))
    assert trace[-1] < 0.5


def test_parameter_without_gradient_is_skipped():
    """A mono-lingual batch leaves the other language's embedding without a
    gradient: it keeps its values and gets no moments."""
    store = ParamStore()
    store.add("embed.la", Tensor(np.ones(2)))
    store.add("embed.lb", Tensor(np.ones(2)))
    store["embed.la"].grad = np.ones(2)
    state = AdamState(learning_rate=0.1)
    adam_update(store, state)
    assert state.step == 1 and sorted(state.first_moment) == ["embed.la"]
    np.testing.assert_allclose(store["embed.la"].data, 0.9, rtol=0, atol=1e-8)
    np.testing.assert_array_equal(store["embed.lb"].data, np.ones(2))
    assert store["embed.la"].grad is None and store["embed.lb"].grad is None


def test_clip_global_norm():
    store = ParamStore()
    store.add("a", Tensor(np.zeros(2)))
    store.add("b", Tensor(np.zeros(1)))
    store["a"].grad = np.array([3.0, 0.0])
    store["b"].grad = np.array([4.0])
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
        store["w"].grad = g.copy()
        adam_update(store, state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w = w - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(store["w"].data, w, rtol=0, atol=1e-12)
