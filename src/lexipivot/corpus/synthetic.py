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

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, InputError
from ..seeding import derive_seed, substream
from .lexicon import GroundTruthLexicon
from .vocab import CaptionedExample, RawCaption, Vocabulary, build_vocabulary, index_captions

FUNCTION_ROLES = ("det", "fill")

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

    def __post_init__(self):
        k = self.grid_side * self.grid_side
        if not self.slots:
            raise InputError(f"scene {self.scene_id} has no populated regions")
        regions = [region for region, _, _ in self.slots]
        if len(set(regions)) != len(regions):
            raise InputError(f"scene {self.scene_id} assigns two concepts to one region")
        if any(not 0 <= r < k for r in regions):
            raise InputError(f"scene {self.scene_id} has a region outside the {k}-cell grid")

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
    function_words: dict[str, str]  # role -> word
    order_template: tuple[str, ...]  # clause skeleton, e.g. (det, content, fill)
    attr_first_probability: float
    pos_of_word: dict[str, str]

    def __post_init__(self):
        words = list(self.concept_to_word.values())
        if len(set(words)) != len(words):
            raise InputError(f"{self.language_id}: concept words are not unique")
        missing = [r for r in self.order_template
                   if r not in ("attr", "noun", "content") and r not in self.function_words]
        if missing:
            raise InputError(f"{self.language_id}: template roles without words: {missing}")

    def clause(self, concept: int, attributes: tuple[int, ...],
               attr_first: bool) -> list[str]:
        out = []
        for role in self.order_template:
            if role == "content":
                noun = [self.concept_to_word[concept]]
                attrs = [self.attribute_to_word[a] for a in attributes]
                out.extend(attrs + noun if attr_first else noun + attrs)
            elif role == "noun":
                out.append(self.concept_to_word[concept])
            elif role == "attr":
                out.extend(self.attribute_to_word[a] for a in attributes)
            else:
                out.append(self.function_words[role])
        return out


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
    max_caption_len: int = 16
    attribute_offset: float = 0.5
    min_concepts_per_scene: int = 2
    max_concepts_per_scene: int = 4
    # each concept co-occurs with a small, language-specific group of other
    # concepts: marginal concept coverage overlaps across languages, but a
    # word's whole-image context differs systematically between them
    # (0 disables the structure: mates drawn uniformly)
    cooccur_group_size: int = 4
    attr_first_probabilities: tuple[float, float] = (0.8, 0.2)
    languages: tuple[str, str] = ("la", "lb")

    def validate(self) -> None:
        if self.concepts < 1:
            raise ConfigError(f"need at least one concept, got {self.concepts}")
        if self.attributes < 1:
            raise ConfigError(f"need at least one attribute, got {self.attributes}")
        if len(self.languages) != 2:
            raise ConfigError(f"exactly two languages required, got {list(self.languages)}")
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
        if self.cooccur_group_size < 0:
            raise ConfigError("cooccur_group_size must be >= 0")
        if len(self.attr_first_probabilities) != 2 or \
                any(not 0.0 <= p <= 1.0 for p in self.attr_first_probabilities):
            raise ConfigError("attr_first_probabilities must be two values in [0,1]")
        if self.min_concepts_per_scene < 1 \
                or self.min_concepts_per_scene > self.max_concepts_per_scene:
            raise ConfigError("need 1 <= min_concepts_per_scene <= max_concepts_per_scene")
        # a caption is det + attribute + noun + filler plus sentinels
        if self.max_caption_len < 6:
            raise ConfigError(
                f"max_caption_len must be at least 6, got {self.max_caption_len}")

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
    attribute_offset: float

    @classmethod
    def build(cls, n_concepts: int, n_attributes: int, feature_dim: int,
              seed: int, attribute_offset: float = 0.5) -> "ConceptPrototypes":
        if feature_dim < 8:
            raise ConfigError(f"feature_dim must be >= 8, got {feature_dim}")
        rng = substream(seed, "prototypes")
        def unit(n):
            v = rng.normal(size=(n, feature_dim))
            return v / np.linalg.norm(v, axis=1, keepdims=True)
        return cls(
            concept=unit(n_concepts),
            attribute=unit(n_attributes),
            background=unit(1)[0],
            attribute_offset=attribute_offset,
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
            vec += prototypes.attribute_offset * prototypes.attribute[a]
        base[region] = vec
    noise = substream(seed, f"noise:{scene.scene_id}").normal(size=(k, d))
    return (base + noise_sigma * noise).astype(np.float32)


@dataclass
class CorpusBundle:
    config: CorpusConfig
    seed: int
    scenes: dict[str, list[Scene]]
    features: dict[int, np.ndarray]
    captions: dict[str, list[RawCaption]]
    examples: dict[str, list[CaptionedExample]]
    vocabs: dict[str, Vocabulary]
    lexicon: GroundTruthLexicon
    language_specs: dict[str, SyntheticLanguageSpec] = field(default_factory=dict)


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
    pos = {w: "noun" for w in concept_words}
    pos.update({w: "adj" for w in attribute_words})
    pos.update({w: "func" for w in function_words.values()})
    return SyntheticLanguageSpec(
        language_id=language_id,
        concept_to_word=dict(enumerate(concept_words)),
        attribute_to_word=dict(enumerate(attribute_words)),
        function_words=function_words,
        order_template=("det", "content", "fill"),
        attr_first_probability=float(config.attr_first_probabilities[slot]),
        pos_of_word=pos,
    )


def cooccurrence_groups(config: CorpusConfig, seed: int, label: str) -> dict[int, list[int]]:
    """Per-concept co-occurrence partners for one language's image set."""
    rng = substream(seed, f"cooccur:{label}")
    groups: dict[int, list[int]] = {}
    for c in range(config.concepts):
        others = [x for x in range(config.concepts) if x != c]
        if config.cooccur_group_size == 0 or not others:
            groups[c] = others
        else:
            size = min(config.cooccur_group_size, len(others))
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
    lexicon.validate()
    return lexicon


def generate_corpus(config: CorpusConfig, seed: int) -> CorpusBundle:
    """Build scenes, features, captions, vocabularies, and the lexicon.

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
        config.concepts, config.attributes, config.feature_dim, seed,
        attribute_offset=config.attribute_offset)

    # disjoint image sets: language i owns scene ids i*n .. (i+1)*n - 1
    n = config.images_per_language
    scene_rng = substream(seed, "scenes")
    scenes: dict[str, list[Scene]] = {}
    for i, lang in enumerate(config.languages):
        groups = cooccurrence_groups(config, seed, lang)
        scenes[lang] = [_draw_scene(i * n + j, scene_rng, config, groups) for j in range(n)]

    features = {scene.scene_id: render_spatial_features(scene, prototypes,
                                                        config.noise_sigma, seed)
                for lang in config.languages for scene in scenes[lang]}

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
    examples = {lang: index_captions(captions[lang], vocabs[lang], config.max_caption_len)
                for lang in config.languages}
    lexicon = build_lexicon(specs[lang_a], specs[lang_b])

    return CorpusBundle(
        config=config,
        seed=seed,
        scenes=scenes,
        features=features,
        captions=captions,
        examples=examples,
        vocabs=vocabs,
        lexicon=lexicon,
        language_specs=specs,
    )
