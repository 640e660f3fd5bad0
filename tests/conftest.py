import numpy as np
import pytest

from lexipivot.corpus import CorpusConfig, generate_corpus
from lexipivot.caption import ModelDims, MultiLingualModel


def build_corpus(**overrides):
    base = dict(concepts=4, attributes=2, grid_side=2, images_per_language=24,
                captions_per_image=2, feature_dim=8, noise_sigma=0.05, min_count=1)
    base.update(overrides)
    return generate_corpus(CorpusConfig(**base), seed=overrides.pop("seed", 7))


def build_model(bundle, embed_dim=8, attn_dim=4, seed=5, dtype=np.float64):
    dims = ModelDims(
        feature_dim=bundle.config.feature_dim,
        embed_dim=embed_dim,
        attn_dim=attn_dim,
        num_regions=bundle.config.grid_side ** 2,
        max_len=bundle.config.max_caption_len,
    )
    vocab_sizes = {lang: v.size for lang, v in bundle.vocabs.items()}
    return MultiLingualModel.build(dims, vocab_sizes, seed=seed, dtype=dtype)


@pytest.fixture(scope="session")
def tiny_bundle():
    return build_corpus()


@pytest.fixture()
def tiny_model(tiny_bundle):
    return build_model(tiny_bundle)
