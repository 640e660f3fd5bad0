"""Cross-lingual word scoring and translation ranking.

Linguistic vectors are the shared-decoder embedding columns; visual
vectors aggregate a word's localized features (mean first, normalize
second). Rankings fuse the two cosines; the CNN-mean and CNN-avgmax
baselines score un-localized global image features instead. Rankings
are evaluated with mean reciprocal rank and precision at K.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .caption.model import MultiLingualModel
from .corpus.lexicon import GroundTruthLexicon
from .corpus.vocab import RESERVED, Vocabulary
from .errors import EmptyResultError, FormatError, InputError, NoVisualError
from .numerics import no_grad
from .seeding import substream

ZERO_NORM = 1e-12
BOTTOM_SCORE = -2.0  # below any cosine; ranks unscorable targets last
DEFAULT_KS = (1, 5, 10, 20)


def unit(vector: np.ndarray) -> np.ndarray | None:
    norm = float(np.linalg.norm(vector))
    if norm < ZERO_NORM:
        return None
    return vector / norm


@dataclass
class WordFeatures:
    linguistic: np.ndarray
    visual: np.ndarray | None
    count: int


@dataclass
class WordFeatureTable:
    language_id: str
    feats: dict[str, WordFeatures] = field(default_factory=dict)

    def words(self) -> list[str]:
        return sorted(self.feats)

    def __contains__(self, word: str) -> bool:
        return word in self.feats

    def __getitem__(self, word: str) -> WordFeatures:
        if word not in self.feats:
            raise KeyError(f"{self.language_id}: no features for word {word!r}")
        return self.feats[word]


def linguistic_vectors(model: MultiLingualModel, language: str,
                       vocab: Vocabulary) -> dict[str, np.ndarray]:
    """Unit-normalized embedding column per content word."""
    embed = model.embedding(language).data
    out = {}
    for word in vocab.content_words():
        vec = unit(embed[:, vocab.word_to_index[word]].astype(np.float64))
        if vec is None:
            raise NoVisualError(f"embedding for {word!r} is a zero vector")
        out[word] = vec
    return out


def aggregate_visual(features: list[np.ndarray]) -> np.ndarray | None:
    """Mean of the occurrence features, then one normalization."""
    if not features:
        return None
    return unit(np.mean(np.asarray(features, dtype=np.float64), axis=0))


def build_table(language_id: str, linguistic: dict[str, np.ndarray],
                visual_sets: dict[str, list[np.ndarray]],
                counts: dict[str, int] | None = None) -> WordFeatureTable:
    table = WordFeatureTable(language_id)
    for word, ling in linguistic.items():
        feats = visual_sets.get(word, [])
        table.feats[word] = WordFeatures(
            linguistic=ling,
            visual=aggregate_visual(feats),
            count=(counts or {}).get(word, len(feats)),
        )
    return table


def collect_global_feature_sets(model: MultiLingualModel, examples, features_by_id,
                                vocab: Vocabulary, cap: int | None = None,
                                seed: int = 0) -> dict[str, np.ndarray]:
    """Baseline feature sets: one global (region-mean) vector per occurrence.

    Mirrors the retrieval-style baselines, where a word is represented by
    whole-image features of the images it occurs with.
    """
    global_by_image: dict[int, np.ndarray] = {}
    with no_grad():
        for image_id in sorted({ex.scene_id for ex in examples}):
            encoded = model.encode(np.asarray(features_by_id[image_id])[None])
            global_by_image[image_id] = encoded.data[0].mean(axis=0)
    sets: dict[str, list[np.ndarray]] = {}
    n_reserved = len(RESERVED)
    for ex in examples:
        for t in ex.word_positions():
            index = ex.tokens[t]
            if index < n_reserved:
                continue
            sets.setdefault(vocab.word(index), []).append(global_by_image[ex.scene_id])
    out = {}
    for word in sorted(sets):
        feats = sets[word]
        if cap is not None and len(feats) > cap:
            rng = substream(seed, f"subsample-global:{vocab.language_id}:{word}")
            keep = sorted(rng.choice(len(feats), size=cap, replace=False))
            feats = [feats[i] for i in keep]
        out[word] = np.asarray(feats, dtype=np.float64)
    return out


# ---------------------------------------------------------------------------
# similarities
# ---------------------------------------------------------------------------


def linguistic_similarity(source: WordFeatureTable, target: WordFeatureTable,
                          x: str, y: str) -> float:
    return float(source[x].linguistic @ target[y].linguistic)


def visual_similarity(source: WordFeatureTable, target: WordFeatureTable,
                      x: str, y: str) -> float:
    sx, sy = source[x].visual, target[y].visual
    if sx is None:
        raise NoVisualError(f"{x!r} has no usable visual representation")
    if sy is None:
        raise NoVisualError(f"{y!r} has no usable visual representation")
    return float(sx @ sy)


@dataclass
class TranslationRanking:
    source_word: str
    method: str
    items: list[tuple[str, float]]  # descending score, ties lexicographic
    fallback_pairs: int = 0

    def rank_of(self, word: str) -> int | None:
        for position, (candidate, _) in enumerate(self.items, start=1):
            if candidate == word:
                return position
        return None


def _ranked(source_word: str, method: str, scores: dict[str, float],
            fallback_pairs: int = 0) -> TranslationRanking:
    items = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return TranslationRanking(source_word, method, items, fallback_pairs)


def fused_rank(x: str, source: WordFeatureTable, target: WordFeatureTable,
               target_vocab=None, fusion_lambda: float = 0.5) -> TranslationRanking:
    """Rank by w_l*s_l + w_i*s_i with (w_l, w_i) = (2L, 2-2L).

    At the default L=0.5 this is the plain unweighted sum. Pairs missing
    a visual side fall back to the linguistic term alone (nothing is
    subtracted) and are counted in `fallback_pairs`.
    """
    if not 0.0 <= fusion_lambda <= 1.0:
        raise InputError(f"fusion lambda must be in [0,1], got {fusion_lambda}")
    w_l, w_i = 2.0 * fusion_lambda, 2.0 * (1.0 - fusion_lambda)
    sx = source[x]
    scores, fallback = {}, 0
    for y in target_vocab if target_vocab is not None else target.words():
        ty = target[y]
        s_l = float(sx.linguistic @ ty.linguistic)
        if sx.visual is None or ty.visual is None:
            scores[y] = w_l * s_l
            fallback += 1
        else:
            scores[y] = w_l * s_l + w_i * float(sx.visual @ ty.visual)
    return _ranked(x, "fused", scores, fallback)


def linguistic_rank(x: str, source: WordFeatureTable, target: WordFeatureTable,
                    target_vocab=None) -> TranslationRanking:
    sx = source[x]
    scores = {y: float(sx.linguistic @ target[y].linguistic)
              for y in (target_vocab if target_vocab is not None else target.words())}
    return _ranked(x, "linguistic", scores)


def visual_rank(x: str, source: WordFeatureTable, target: WordFeatureTable,
                target_vocab=None) -> TranslationRanking:
    sx = source[x]
    if sx.visual is None:
        raise NoVisualError(f"{x!r} has no usable visual representation")
    scores, fallback = {}, 0
    for y in target_vocab if target_vocab is not None else target.words():
        ty = target[y]
        if ty.visual is None:
            scores[y] = BOTTOM_SCORE
            fallback += 1
        else:
            scores[y] = float(sx.visual @ ty.visual)
    return _ranked(x, "visual", scores, fallback)


# ---------------------------------------------------------------------------
# global-feature baselines
# ---------------------------------------------------------------------------


def cnn_mean_rank(x: str, source_sets: dict[str, np.ndarray],
                  target_sets: dict[str, np.ndarray],
                  target_vocab=None) -> TranslationRanking:
    """Cosine of the two set means over global image features."""
    if x not in source_sets:
        raise KeyError(f"no image set for source word {x!r}")
    sx = unit(np.mean(source_sets[x], axis=0))
    if sx is None:
        raise NoVisualError(f"{x!r} has a degenerate global feature set")
    scores, fallback = {}, 0
    for y in target_vocab if target_vocab is not None else sorted(target_sets):
        ty = unit(np.mean(target_sets[y], axis=0)) if y in target_sets else None
        if ty is None:
            scores[y] = BOTTOM_SCORE
            fallback += 1
        else:
            scores[y] = float(sx @ ty)
    return _ranked(x, "cnn_mean", scores, fallback)


def cnn_avgmax_rank(x: str, source_sets: dict[str, np.ndarray],
                    target_sets: dict[str, np.ndarray],
                    target_vocab=None) -> TranslationRanking:
    """Mean over source images of the best cosine among target images."""
    if x not in source_sets:
        raise KeyError(f"no image set for source word {x!r}")
    if source_sets[x].size == 0:
        raise NoVisualError(f"{x!r} has an empty image set")
    src = _unit_rows(source_sets[x])
    scores, fallback = {}, 0
    for y in target_vocab if target_vocab is not None else sorted(target_sets):
        tgt = _unit_rows(target_sets[y]) if y in target_sets and target_sets[y].size else None
        if tgt is None or not len(tgt):
            scores[y] = BOTTOM_SCORE
            fallback += 1
        else:
            scores[y] = float(np.mean(np.max(src @ tgt.T, axis=1)))
    return _ranked(x, "cnn_avgmax", scores, fallback)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms < ZERO_NORM] = 1.0
    return rows / norms


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    method: str
    pos: str
    n: int
    mrr: float
    p_at: dict[int, float]  # fractions in [0,1]
    skipped: int = 0
    fallback_pairs: int = 0


def evaluate(rankings: dict[str, TranslationRanking], lexicon: GroundTruthLexicon,
             ks=DEFAULT_KS, method: str | None = None, pos: str = "all",
             words=None) -> EvalReport:
    """MRR/P@K over the lexicon's source words (1-based ranks, best target).

    Source words without a ranking, or whose acceptable targets are all
    missing from the candidate list, are skipped and counted.
    """
    ks = tuple(sorted(ks))
    total_rr = 0.0
    hits = {k: 0 for k in ks}
    n = skipped = fallback = 0
    pool = sorted(words) if words is not None else sorted(lexicon.entries)
    for source_word in pool:
        targets = lexicon.entries.get(source_word, set())
        ranking = rankings.get(source_word)
        if ranking is None or not targets:
            skipped += 1
            continue
        ranks = [r for r in (ranking.rank_of(t) for t in targets) if r is not None]
        if not ranks:
            skipped += 1
            continue
        best = min(ranks)
        total_rr += 1.0 / best
        for k in ks:
            if best <= k:
                hits[k] += 1
        fallback += ranking.fallback_pairs
        n += 1
    if n == 0:
        raise EmptyResultError(f"no evaluable source words (skipped {skipped})")
    name = method or next(iter(rankings.values())).method
    return EvalReport(method=name, pos=pos, n=n, mrr=total_rr / n,
                      p_at={k: hits[k] / n for k in ks}, skipped=skipped,
                      fallback_pairs=fallback)


def pos_breakdown(rankings: dict[str, TranslationRanking],
                  lexicon: GroundTruthLexicon, ks=DEFAULT_KS,
                  method: str | None = None) -> list[EvalReport]:
    """Per-POS rows; words without a tag fall in the "unk" group."""
    groups: dict[str, list[str]] = {}
    for word in lexicon.entries:
        groups.setdefault(lexicon.pos_of(word), []).append(word)
    reports = []
    for tag in sorted(groups):
        try:
            reports.append(evaluate(rankings, lexicon, ks=ks, method=method,
                                    pos=tag, words=groups[tag]))
        except EmptyResultError:
            continue
    return reports


# ---------------------------------------------------------------------------
# report and ranking files
# ---------------------------------------------------------------------------


def write_rankings(path, rankings_by_method: dict[str, dict[str, TranslationRanking]],
                   top_k: int = 20, full: bool = False) -> None:
    """source TAB method TAB comma-joined target:score (6 decimals)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for method in sorted(rankings_by_method):
            for source_word in sorted(rankings_by_method[method]):
                ranking = rankings_by_method[method][source_word]
                items = ranking.items if full else ranking.items[:top_k]
                cells = ",".join(f"{w}:{s:.6f}" for w, s in items)
                fh.write(f"{source_word}\t{method}\t{cells}\n")


def read_rankings(path) -> dict[str, dict[str, TranslationRanking]]:
    out: dict[str, dict[str, TranslationRanking]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
            source_word, method, cells = parts
            items = []
            for cell in cells.split(","):
                word, _, score = cell.rpartition(":")
                try:
                    items.append((word, float(score)))
                except ValueError as exc:
                    raise FormatError(
                        f"{path}:{lineno}: score {score!r} of candidate {word!r} "
                        f"is not a number") from exc
            out.setdefault(method, {})[source_word] = TranslationRanking(
                source_word, method, items)
    return out


def report_rows(reports: list[EvalReport]) -> list[dict]:
    rows = []
    for r in sorted(reports, key=lambda r: (r.method, r.pos != "all", r.pos)):
        row = {"method": r.method, "pos": r.pos, "n": r.n,
               "mrr": round(r.mrr, 6)}
        for k in sorted(r.p_at):
            row[f"p{k}"] = round(100.0 * r.p_at[k], 4)  # percentages
        row["skipped"] = r.skipped
        row["fallback_pairs"] = r.fallback_pairs
        rows.append(row)
    return rows


def write_report_csv(path, reports: list[EvalReport]) -> None:
    rows = report_rows(reports)
    if not rows:
        raise EmptyResultError("no report rows to write")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def write_report_json(path, reports: list[EvalReport]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"reports": report_rows(reports)}, fh, indent=2, sort_keys=True)
        fh.write("\n")
