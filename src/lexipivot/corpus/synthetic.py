"""Synthetic bilingual multimodal corpora with a lexicon known by construction.

Scenes place a few concepts (each with one attribute) on a spatial grid;
region feature vectors are concept prototypes plus attribute offsets plus
noise, standing in for encoded image regions. Which concepts share a scene
is language-specific (cluttered images look different across language
communities), but each caption describes exactly one slot, so the text
distributions stay parallel. The two languages use disjoint word forms and
opposite dominant attribute/noun orders; the role-for-role pairing of
their words is the ground-truth translation lexicon.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..seeding import substream
from .lexicon import GroundTruthLexicon
from .vocab import RawCaption, Vocabulary, build_vocabulary

FUNCTION_ROLES = ("det", "fill")
# weight of an attribute's prototype added to its concept's region vector
ATTRIBUTE_OFFSET = 0.5
# each concept co-occurs with a small, language-specific group of other
# concepts: marginal concept coverage overlaps across languages, but a
# word's whole-image context differs systematically between them
COOCCUR_GROUP_SIZE = 4
# P(attribute before noun) for language slots 0 and 1
ATTR_FIRST_PROBABILITIES = (0.8, 0.2)

# syllable inventories; one per language slot so word forms never look alike
_SYLLABLES = (
    ("ba", "de", "ki", "lo", "mu", "na", "pe", "ri", "so", "tu", "va", "ze"),
    ("ak", "eth", "ish", "olm", "urn", "ard", "esk", "ilt", "orv", "ung", "alz", "ebr"),
)


@dataclass(frozen=True)
class Scene:
    """Grid of regions, a few of which hold an attributed concept."""

    scene_id: int
    grid_side: int
    slots: tuple[tuple[int, int, tuple[int, ...]], ...]  # (region, concept, attribute ids)

    @property
    def num_regions(self) -> int:
        return self.grid_side * self.grid_side

    def concept_regions(self) -> dict[int, int]:
        return {concept: region for region, concept, _ in self.slots}


@dataclass(frozen=True)
class SyntheticLanguageSpec:
    """Word inventory and constituent-order rule for one synthetic language.

    Each clause is determiner + content + filler; the content half puts
    the attribute before the noun with probability `attr_first_probability`
    (languages get opposite preferences, so dominant orders differ without
    making position a perfect proxy for word class).
    """

    language_id: str
    concept_to_word: dict[int, str]
    attribute_to_word: dict[int, str]
    function_words: dict[str, str]  # role -> word, one per FUNCTION_ROLES
    attr_first_probability: float

    def clause(self, concept: int, attributes: tuple[int, ...],
               attr_first: bool) -> list[str]:
        noun = [self.concept_to_word[concept]]
        attrs = [self.attribute_to_word[a] for a in attributes]
        content = attrs + noun if attr_first else noun + attrs
        return [self.function_words["det"], *content, self.function_words["fill"]]


@dataclass
class CorpusConfig:
    concepts: int = 50
    attributes: int = 5
    grid_side: int = 3
    images_per_language: int = 2000
    captions_per_image: int = 2
    feature_dim: int = 32
    noise_sigma: float = 0.1
    min_count: int = 6
    min_concepts_per_scene: int = 2
    max_concepts_per_scene: int = 4
    languages: tuple[str, str] = ("la", "lb")

    def validate(self) -> None:
        if self.concepts < 1:
            raise ConfigError(f"need at least one concept, got {self.concepts}")
        if self.attributes < 1:
            raise ConfigError(f"need at least one attribute, got {self.attributes}")
        if len(self.languages) != 2:
            raise ConfigError(f"exactly two languages required, got {list(self.languages)}")
        for name in self.languages:
            # a language name is the stem of its corpus and table file names
            if not re.fullmatch(r"[A-Za-z0-9_-]+", name):
                raise ConfigError(f"language name {name!r} must be letters, digits, "
                                  f"'_' or '-'")
        if self.languages[0] == self.languages[1]:
            raise ConfigError(f"the two languages must differ, got {list(self.languages)}")
        if self.images_per_language < 1:
            raise ConfigError("images_per_language must be >= 1")
        if self.captions_per_image < 1:
            raise ConfigError("captions_per_image must be >= 1")
        if self.grid_side < 1:
            raise ConfigError("grid_side must be >= 1")
        if self.feature_dim < 8:
            raise ConfigError(f"feature_dim must be >= 8, got {self.feature_dim}")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.min_concepts_per_scene < 1 \
                or self.min_concepts_per_scene > self.max_concepts_per_scene:
            raise ConfigError("need 1 <= min_concepts_per_scene <= max_concepts_per_scene")

    @property
    def max_slots(self) -> int:
        return max(1, min(self.max_concepts_per_scene, self.concepts,
                          self.grid_side * self.grid_side))

    @property
    def min_slots(self) -> int:
        return min(self.min_concepts_per_scene, self.max_slots)


@dataclass
class ConceptPrototypes:
    """Fixed unit-norm direction per concept/attribute plus a background."""

    concept: np.ndarray
    attribute: np.ndarray
    background: np.ndarray

    @classmethod
    def build(cls, n_concepts: int, n_attributes: int, feature_dim: int,
              seed: int) -> "ConceptPrototypes":
        rng = substream(seed, "prototypes")
        def unit(n):
            v = rng.normal(size=(n, feature_dim))
            return v / np.linalg.norm(v, axis=1, keepdims=True)
        return cls(
            concept=unit(n_concepts),
            attribute=unit(n_attributes),
            background=unit(1)[0],
        )


def render_spatial_features(scene: Scene, prototypes: ConceptPrototypes,
                            noise_sigma: float, seed: int) -> np.ndarray:
    """K x D float32 grid: prototype mixture per populated region plus noise."""
    k = scene.num_regions
    d = prototypes.concept.shape[1]
    base = np.tile(prototypes.background, (k, 1))
    for region, concept, attributes in scene.slots:
        vec = prototypes.concept[concept].copy()
        for a in attributes:
            vec += ATTRIBUTE_OFFSET * prototypes.attribute[a]
        base[region] = vec
    noise = substream(seed, f"noise:{scene.scene_id}").normal(size=(k, d))
    return (base + noise_sigma * noise).astype(np.float32)


@dataclass
class CorpusBundle:
    config: CorpusConfig
    seed: int
    scenes: dict[str, list[Scene]]
    regions: dict[str, np.ndarray]  # language -> grids [N,K,D], row j of scenes[lang][j]
    captions: dict[str, list[RawCaption]]
    vocabs: dict[str, Vocabulary]
    lexicon: GroundTruthLexicon


def _make_words(rng: np.random.Generator, syllables, count: int,
                length: tuple[int, int], taken: set[str]) -> list[str]:
    words = []
    while len(words) < count:
        n = int(rng.integers(length[0], length[1] + 1))
        word = "".join(syllables[int(rng.integers(len(syllables)))] for _ in range(n))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def build_language_spec(language_id: str, slot: int, config: CorpusConfig,
                        seed: int) -> SyntheticLanguageSpec:
    """Deterministic word inventory for language `slot` (0 or 1).

    Language 0 orders attributes before nouns, language 1 after, so the
    two synthetic languages differ in constituent order as well as form.
    """
    rng = substream(seed, f"words:{language_id}:{slot}")
    syllables = _SYLLABLES[slot % len(_SYLLABLES)]
    taken: set[str] = set()
    concept_words = _make_words(rng, syllables, config.concepts, (2, 3), taken)
    attribute_words = _make_words(rng, syllables, config.attributes, (2, 3), taken)
    function_words = dict(zip(FUNCTION_ROLES,
                              _make_words(rng, syllables, len(FUNCTION_ROLES), (1, 1), taken)))
    return SyntheticLanguageSpec(
        language_id=language_id,
        concept_to_word=dict(enumerate(concept_words)),
        attribute_to_word=dict(enumerate(attribute_words)),
        function_words=function_words,
        attr_first_probability=ATTR_FIRST_PROBABILITIES[slot],
    )


def cooccurrence_groups(config: CorpusConfig, seed: int, label: str) -> dict[int, list[int]]:
    """Per-concept co-occurrence partners for one language's image set."""
    rng = substream(seed, f"cooccur:{label}")
    groups: dict[int, list[int]] = {}
    for c in range(config.concepts):
        others = [x for x in range(config.concepts) if x != c]
        if not others:  # a single-concept corpus
            groups[c] = others
        else:
            size = min(COOCCUR_GROUP_SIZE, len(others))
            groups[c] = sorted(int(x) for x in rng.choice(others, size=size, replace=False))
    return groups


def _draw_scene(scene_id: int, rng: np.random.Generator, config: CorpusConfig,
                groups: dict[int, list[int]]) -> Scene:
    k = config.grid_side * config.grid_side
    anchor = int(rng.integers(config.concepts))
    mates = groups[anchor]
    high = min(config.max_slots, 1 + len(mates))
    low = min(config.min_slots, high)
    n_slots = int(rng.integers(low, high + 1))
    regions = sorted(int(r) for r in rng.choice(k, size=n_slots, replace=False))
    concepts = [anchor]
    if n_slots > 1:
        concepts += [int(c) for c in rng.choice(mates, size=n_slots - 1, replace=False)]
    slots = tuple(
        (region, int(concept), (int(rng.integers(config.attributes)),))
        for region, concept in zip(regions, concepts)
    )
    return Scene(scene_id=scene_id, grid_side=config.grid_side, slots=slots)


def _caption_words(scene: Scene, spec: SyntheticLanguageSpec,
                   rng: np.random.Generator) -> tuple[str, ...]:
    """One clause describing a uniformly chosen slot of the scene."""
    region, concept, attributes = scene.slots[int(rng.integers(len(scene.slots)))]
    attr_first = bool(rng.random() < spec.attr_first_probability)
    return tuple(spec.clause(concept, attributes, attr_first))


def build_lexicon(source: SyntheticLanguageSpec,
                  target: SyntheticLanguageSpec) -> GroundTruthLexicon:
    lexicon = GroundTruthLexicon(source.language_id, target.language_id)
    for concept, word in source.concept_to_word.items():
        lexicon.add(word, target.concept_to_word[concept], "noun")
    for attribute, word in source.attribute_to_word.items():
        lexicon.add(word, target.attribute_to_word[attribute], "adj")
    for role, word in source.function_words.items():
        lexicon.add(word, target.function_words[role], "func")
    return lexicon


def generate_corpus(config: CorpusConfig, seed: int) -> CorpusBundle:
    """Build scenes, region grids, captions, vocabularies, and the lexicon.

    Pure function of (config, seed): every random choice comes from a
    named sub-stream of `seed`.
    """
    config.validate()
    lang_a, lang_b = config.languages
    specs = {
        lang_a: build_language_spec(lang_a, 0, config, seed),
        lang_b: build_language_spec(lang_b, 1, config, seed),
    }
    prototypes = ConceptPrototypes.build(
        config.concepts, config.attributes, config.feature_dim, seed)

    # disjoint image sets: language i owns scene ids i*n .. (i+1)*n - 1
    n = config.images_per_language
    scene_rng = substream(seed, "scenes")
    scenes: dict[str, list[Scene]] = {}
    for i, lang in enumerate(config.languages):
        groups = cooccurrence_groups(config, seed, lang)
        scenes[lang] = [_draw_scene(i * n + j, scene_rng, config, groups) for j in range(n)]

    try:   # a float32 grid that overflows would be written as infinities
        with np.errstate(over="raise"):
            regions = {lang: np.stack([render_spatial_features(s, prototypes,
                                                               config.noise_sigma, seed)
                                       for s in scenes[lang]]) for lang in config.languages}
    except FloatingPointError as exc:
        raise ConfigError(f"corpus.noise_sigma {config.noise_sigma!r} overflows the float32 "
                          f"feature grids ({exc})") from exc

    captions: dict[str, list[RawCaption]] = {}
    for lang in config.languages:
        rows = []
        for scene in scenes[lang]:
            for j in range(config.captions_per_image):
                rng = substream(seed, f"caption:{lang}:{scene.scene_id}:{j}")
                rows.append(RawCaption(
                    image_id=scene.scene_id,
                    language_id=lang,
                    words=_caption_words(scene, specs[lang], rng),
                ))
        captions[lang] = rows

    vocabs = {lang: build_vocabulary(captions[lang], config.min_count)
              for lang in config.languages}
    lexicon = build_lexicon(specs[lang_a], specs[lang_b])

    return CorpusBundle(
        config=config,
        seed=seed,
        scenes=scenes,
        regions=regions,
        captions=captions,
        vocabs=vocabs,
        lexicon=lexicon,
    )
