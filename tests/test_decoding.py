import numpy as np
import pytest

from lexipivot.caption import generate_caption
from lexipivot.corpus.vocab import BOS, EOS, PAD, UNK
from lexipivot.numerics import no_grad

from conftest import build_corpus, build_model


@pytest.fixture(scope="module")
def setup():
    bundle = build_corpus()
    model = build_model(bundle)
    lang = bundle.config.languages[0]
    feats = [bundle.features[s.scene_id] for s in bundle.scenes[lang][:8]]
    return model, lang, feats


def test_terminates_within_max_len(setup):
    model, lang, feats = setup
    for f in feats:
        tokens = generate_caption(model, lang, f)
        assert 1 <= len(tokens) <= model.dims.max_len - 1
        assert all(t not in (PAD, BOS, UNK) for t in tokens)


def test_each_token_is_the_best_allowed_next_token(setup):
    model, lang, feats = setup
    for f in feats[:4]:
        tokens = generate_caption(model, lang, f)
        assert tokens[-1] == EOS or len(tokens) == model.dims.max_len - 1
        with no_grad():
            regions = model.encode(np.asarray(f)[None])
            state = model.initial_state(1)
            prev = BOS
            for token in tokens:
                logits, state, _, _ = model.step(lang, state, np.array([prev]), regions)
                row = logits.data[0]
                allowed = [i for i in range(row.size) if i not in (PAD, BOS, UNK)]
                assert row[token] == max(row[i] for i in allowed)
                prev = token


def test_deterministic(setup):
    model, lang, feats = setup
    a = generate_caption(model, lang, feats[0])
    b = generate_caption(model, lang, feats[0])
    assert a == b
