from collections import Counter

import numpy as np
import pytest

from lexipivot.corpus import (
    ConceptPrototypes,
    CorpusConfig,
    RawCaption,
    Scene,
    build_language_spec,
    build_vocabulary,
    generate_corpus,
    render_spatial_features,
)
from lexipivot.corpus.vocab import RESERVED, UNK
from lexipivot.errors import ConfigError

from conftest import indexed


def tiny_config(**overrides):
    base = dict(concepts=4, attributes=2, grid_side=2, images_per_language=30,
                captions_per_image=2, feature_dim=8, noise_sigma=0.05, min_count=1)
    base.update(overrides)
    return CorpusConfig(**base)


class TestGeneration:
    def test_single_concept_lexicon_counts(self):
        config = tiny_config(concepts=1, attributes=1, images_per_language=4)
        bundle = generate_corpus(config, seed=3)
        # exactly 1 concept word + 1 attribute word + 2 function-role words
        assert len(bundle.lexicon.entries) == 4
        pos_counts = Counter(bundle.lexicon.pos.values())
        assert pos_counts == {"noun": 1, "adj": 1, "func": 2}

    def test_determinism_same_seed(self):
        a = generate_corpus(tiny_config(), seed=9)
        b = generate_corpus(tiny_config(), seed=9)
        assert a.captions == b.captions
        assert indexed(a) == indexed(b)
        assert a.lexicon.entries == b.lexicon.entries
        assert sorted(a.regions) == sorted(b.regions)
        for lang in a.regions:
            assert a.regions[lang].tobytes() == b.regions[lang].tobytes()

    def test_different_seed_differs(self):
        a = generate_corpus(tiny_config(), seed=1)
        b = generate_corpus(tiny_config(), seed=2)
        assert a.captions != b.captions

    def test_disjoint_scene_ids(self):
        bundle = generate_corpus(tiny_config(), seed=5)
        la, lb = bundle.config.languages
        ids_a = {s.scene_id for s in bundle.scenes[la]}
        ids_b = {s.scene_id for s in bundle.scenes[lb]}
        assert not (ids_a & ids_b)

    def test_lexicon_consistency_by_construction(self):
        config = tiny_config()
        bundle = generate_corpus(config, seed=11)
        la, lb = config.languages
        spec_a = build_language_spec(la, 0, config, seed=11)
        spec_b = build_language_spec(lb, 1, config, seed=11)
        for concept, word_a in spec_a.concept_to_word.items():
            assert bundle.lexicon.entries[word_a] == {spec_b.concept_to_word[concept]}
        for attr, word_a in spec_a.attribute_to_word.items():
            assert bundle.lexicon.entries[word_a] == {spec_b.attribute_to_word[attr]}
        for role, word_a in spec_a.function_words.items():
            assert bundle.lexicon.entries[word_a] == {spec_b.function_words[role]}

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            generate_corpus(tiny_config(concepts=0), seed=0)
        with pytest.raises(ConfigError):
            generate_corpus(tiny_config(images_per_language=0), seed=0)
        with pytest.raises(ConfigError):
            generate_corpus(tiny_config(feature_dim=4), seed=0)

    def test_default_scale_retains_every_content_word(self):
        config = CorpusConfig()
        bundle = generate_corpus(config, seed=17)
        la = config.languages[0]
        vocab = bundle.vocabs[la]
        spec = build_language_spec(la, 0, config, seed=17)
        all_words = (list(spec.concept_to_word.values())
                     + list(spec.attribute_to_word.values())
                     + list(spec.function_words.values()))
        for word in all_words:
            assert vocab.counts.get(word, 0) >= 6, f"{word} occurs too rarely"
        # and synthetic generation never emits unknowns
        for ex in indexed(bundle)[la][:500]:
            assert UNK not in ex.tokens

    @pytest.mark.parametrize("overrides", [
        {}, {"attributes": 20}, {"concepts": 150},
        {"min_concepts_per_scene": 1, "max_concepts_per_scene": 1},
        {"min_concepts_per_scene": 5, "max_concepts_per_scene": 5},
    ], ids=["default", "20 attributes", "150 concepts", "1 concept per scene",
            "5 concepts per scene"])
    def test_every_caption_is_six_tokens(self, overrides):
        """det + attribute + noun + filler between the two sentinels, so
        training unrolls no caption past six tokens."""
        config = CorpusConfig(images_per_language=50, **overrides)
        bundle = generate_corpus(config, seed=17)
        for examples in indexed(bundle).values():
            assert {len(ex.tokens) for ex in examples} == {6}


class TestFeatures:
    def test_zero_noise_identical_slots_identical_grids(self):
        protos = ConceptPrototypes.build(3, 2, 8, seed=4)
        slots = ((0, 1, (0,)), (3, 2, (1,)))
        s1 = Scene(scene_id=10, grid_side=2, slots=slots)
        s2 = Scene(scene_id=77, grid_side=2, slots=slots)
        f1 = render_spatial_features(s1, protos, 0.0, seed=4)
        f2 = render_spatial_features(s2, protos, 0.0, seed=4)
        assert np.array_equal(f1, f2)

    def test_noise_keyed_by_scene_id(self):
        protos = ConceptPrototypes.build(3, 2, 8, seed=4)
        slots = ((0, 1, (0,)),)
        f1 = render_spatial_features(Scene(1, 2, slots), protos, 0.3, seed=4)
        f2 = render_spatial_features(Scene(2, 2, slots), protos, 0.3, seed=4)
        assert not np.array_equal(f1, f2)

    def test_same_concept_regions_more_similar(self):
        config = tiny_config(concepts=6, images_per_language=60, noise_sigma=0.1)
        bundle = generate_corpus(config, seed=13)
        lang = config.languages[0]
        by_concept = {}
        for scene, grid in zip(bundle.scenes[lang], bundle.regions[lang]):
            for region, concept, _ in scene.slots:
                by_concept.setdefault(concept, []).append(grid[region])
        rng = np.random.default_rng(0)
        concepts = [c for c, v in by_concept.items() if len(v) >= 2]
        same, diff = [], []
        for _ in range(100):
            c = concepts[rng.integers(len(concepts))]
            i, j = rng.choice(len(by_concept[c]), size=2, replace=False)
            same.append(_cos(by_concept[c][i], by_concept[c][j]))
            c2 = concepts[rng.integers(len(concepts))]
            while c2 == c:
                c2 = concepts[rng.integers(len(concepts))]
            k = rng.integers(len(by_concept[c2]))
            diff.append(_cos(by_concept[c][i], by_concept[c2][k]))
        assert np.mean(same) > np.mean(diff)


def _cos(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestVocabulary:
    def caption(self, words, lang="xx", image=0):
        return RawCaption(image_id=image, language_id=lang, words=tuple(words))

    def test_strictly_more_than_five(self):
        caps = [self.caption(["w"]) for _ in range(5)] + \
               [self.caption(["keep"]) for _ in range(6)]
        vocab = build_vocabulary(caps, min_count=6)
        assert "w" not in vocab.word_to_index
        assert "keep" in vocab.word_to_index

    def test_all_below_threshold(self):
        vocab = build_vocabulary([self.caption(["a", "b"])], min_count=6)
        assert vocab.index_to_word == list(RESERVED)

    def test_tie_breaks_lexicographic(self):
        caps = [self.caption(["bb", "aa"]) for _ in range(3)]
        vocab = build_vocabulary(caps, min_count=1)
        assert vocab.index_to_word[len(RESERVED):] == ["aa", "bb"]

    def test_unknown_maps_to_unk(self):
        caps = [self.caption(["hello"]) for _ in range(6)]
        vocab = build_vocabulary(caps, min_count=6)
        assert vocab.encode(["hello", "granola"]) == [4, UNK]
