import numpy as np
import pytest

from lexipivot.corpus import CorpusConfig, generate_corpus, index_captions
from lexipivot.caption import ModelDims, MultiLingualModel


def build_corpus(**overrides):
    base = dict(concepts=4, attributes=2, grid_side=2, images_per_language=24,
                captions_per_image=2, feature_dim=8, noise_sigma=0.05, min_count=1)
    base.update(overrides)
    return generate_corpus(CorpusConfig(**base), seed=overrides.pop("seed", 7))


def indexed(bundle):
    """Each language's captions as training examples, indexed as
    `pipeline.load_corpus` indexes the written corpus: each caption's
    `image_row` is its scene's row in `bundle.regions[lang]`."""
    out = {}
    for lang in bundle.config.languages:
        row_of = {scene.scene_id: row for row, scene in enumerate(bundle.scenes[lang])}
        captions = bundle.captions[lang]
        out[lang] = index_captions(captions, [row_of[cap.image_id] for cap in captions],
                                   bundle.vocabs[lang])
    return out


def build_model(bundle, embed_dim=8, attn_dim=4, seed=5, dtype=np.float64):
    dims = ModelDims(
        feature_dim=bundle.config.feature_dim,
        embed_dim=embed_dim,
        attn_dim=attn_dim,
        num_regions=bundle.config.grid_side ** 2,
    )
    vocab_sizes = {lang: v.size for lang, v in bundle.vocabs.items()}
    return MultiLingualModel.build(dims, vocab_sizes, seed=seed, dtype=dtype)


@pytest.fixture(scope="session")
def tiny_bundle():
    return build_corpus()


@pytest.fixture()
def tiny_model(tiny_bundle):
    return build_model(tiny_bundle)
