"""Cross-lingual word scoring and translation ranking.

Linguistic vectors are the shared-decoder embedding columns; visual
vectors aggregate a word's localized features (mean first, normalize
second). Rankings fuse the two cosines; the CNN-mean and CNN-avgmax
baselines score un-localized global image features instead. Rankings
are evaluated with mean reciprocal rank and precision at K.

Each language's inputs are held as matrices (`WordFeatureTable`), so a
ranker scores one source word against every target in one product.
Identical candidates get bit-identical scores, and ranking is a stable
sort on the score over targets in word order: `(-score, word)`. A ranking
holds that order as an array of target rows beside their scores.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .caption.model import MultiLingualModel
from .corpus.lexicon import GroundTruthLexicon
from .corpus.vocab import RESERVED, Vocabulary
from .errors import EmptyResultError, NumericError
from .localization import ROW_CAP
from .numerics import no_grad
from .seeding import substream

ZERO_NORM = 1e-12
BOTTOM_SCORE = -2.0  # below any cosine; ranks unscorable targets last
KS = (1, 5, 10, 20)  # the report's precision cut-offs
RANKING_WIDTH = 20  # candidates per source word in rankings.tsv
BASELINE_SET_CAP = 100  # global image rows kept per word for the CNN baselines


def unit(vector: np.ndarray) -> np.ndarray | None:
    norm = float(np.linalg.norm(vector))
    if norm < ZERO_NORM:
        return None
    return vector / norm


def mean_unit(rows: np.ndarray) -> np.ndarray | None:
    """Mean of a set of rows, then one normalization; None when the set is
    empty or its mean is (near) zero."""
    rows = np.asarray(rows, dtype=np.float64)
    if not len(rows):
        return None
    return unit(np.mean(rows, axis=0))


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise normalization; (near) zero rows stay zero."""
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms < ZERO_NORM] = 1.0
    return rows / norms


def _distinct_rows(sets: list[np.ndarray], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct unit rows of all sets, compared by their bytes, and each
    set member's index into them, members of the sets in order."""
    index: dict[bytes, int] = {}
    inverse = [index.setdefault(row.tobytes(), len(index))
               for rows in sets for row in _unit_rows(rows)]
    distinct = np.frombuffer(b"".join(index), dtype=np.float64).reshape(len(index), dim)
    return distinct, np.array(inverse, dtype=np.intp)


def _stacked(vectors: list, dim: int) -> np.ndarray:
    return np.asarray(vectors, dtype=np.float64).reshape(len(vectors), dim)


def _first_dim(sets) -> int:
    return next((np.shape(v)[-1] for v in sets), 0)


@dataclass
class WordFeatureTable:
    """One language's induction inputs as matrices, rows in sorted word order.

    `words` index every row. The global image sets of the CNN baselines are
    held as set means, and every set member as an index into the distinct
    unit image rows (`global_rows`), word i owning `global_inverse[
    global_offsets[i]:global_offsets[i + 1]]`, an empty range when it has
    no set. Rows with no usable vector are zero and flagged False in
    `has_visual` / `global_mean_valid`.
    """

    language_id: str
    words: list[str]
    linguistic: np.ndarray         # [n, d] unit rows
    visual: np.ndarray             # [n, d_v] unit rows
    has_visual: np.ndarray         # [n] bool
    global_mean: np.ndarray        # [n, d_g] unit set means
    global_mean_valid: np.ndarray  # [n] bool: set non-empty, mean non-zero
    global_rows: np.ndarray        # [u, d_g] distinct unit image rows
    global_inverse: np.ndarray     # [set members] row of global_rows
    global_offsets: np.ndarray     # [n + 1]
    rows: dict[str, int] = field(init=False, repr=False)  # word -> row

    def __post_init__(self):
        self.rows = {w: i for i, w in enumerate(self.words)}

    def row(self, word: str) -> int:
        if word not in self.rows:
            raise KeyError(f"{self.language_id}: no features for word {word!r}")
        return self.rows[word]


def linguistic_vectors(model: MultiLingualModel, language: str,
                       vocab: Vocabulary) -> dict[str, np.ndarray]:
    """Unit-normalized embedding column per content word."""
    embed = model.embedding(language).data
    out = {}
    for word in vocab.content_words():
        vec = unit(embed[:, vocab.word_to_index[word]].astype(np.float64))
        if vec is None:
            raise NumericError(f"embedding for {word!r} is a zero vector")
        out[word] = vec
    return out


def build_table(language_id: str, linguistic: dict[str, np.ndarray],
                visual_sets: dict[str, np.ndarray],
                global_sets: dict[str, np.ndarray]) -> WordFeatureTable:
    """Stack one language's features into matrices.

    `linguistic` holds unit vectors (as `linguistic_vectors` makes them)
    and names the table's words; a word's visual vector is the unit mean
    of its `visual_sets` rows. `global_sets` holds each word's global image
    rows for the baselines. Sets of words outside `linguistic` are dropped.
    """
    words = sorted(linguistic)
    visual = [mean_unit(visual_sets[w]) if w in visual_sets else None for w in words]
    d_v = _first_dim(v for v in visual if v is not None)
    d_g = _first_dim(global_sets[w] for w in words if w in global_sets)
    sets = [np.asarray(global_sets.get(w, np.zeros((0, d_g))), dtype=np.float64)
            for w in words]
    means = [mean_unit(s) for s in sets]
    distinct, inverse = _distinct_rows(sets, d_g)
    return WordFeatureTable(
        language_id=language_id,
        words=words,
        linguistic=_stacked([linguistic[w] for w in words], _first_dim(linguistic.values())),
        visual=_stacked([np.zeros(d_v) if v is None else v for v in visual], d_v),
        has_visual=np.array([v is not None for v in visual], dtype=bool),
        global_mean=_stacked([np.zeros(d_g) if m is None else m for m in means], d_g),
        global_mean_valid=np.array([m is not None for m in means], dtype=bool),
        global_rows=distinct,
        global_inverse=inverse,
        global_offsets=np.cumsum([0] + [len(s) for s in sets]),
    )


def collect_global_feature_sets(model: MultiLingualModel, examples, features_by_id,
                                vocab: Vocabulary, seed: int) -> dict[str, np.ndarray]:
    """Baseline feature sets: one global (region-mean) vector per occurrence,
    a seeded subsample of `BASELINE_SET_CAP` of them for a word with more.

    Mirrors the retrieval-style baselines, where a word is represented by
    whole-image features of the images it occurs with.
    """
    image_ids = sorted({ex.scene_id for ex in examples})
    global_by_image: dict[int, np.ndarray] = {}
    with no_grad():
        for start in range(0, len(image_ids), ROW_CAP):
            chunk = image_ids[start:start + ROW_CAP]
            encoded = model.encode(np.stack([features_by_id[i] for i in chunk]))
            global_by_image.update(zip(chunk, encoded.data.mean(axis=1)))
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
        if len(feats) > BASELINE_SET_CAP:
            rng = substream(seed, f"subsample-global:{vocab.language_id}:{word}")
            keep = sorted(rng.choice(len(feats), size=BASELINE_SET_CAP, replace=False))
            feats = [feats[i] for i in keep]
        out[word] = np.asarray(feats, dtype=np.float64)
    return out


# ---------------------------------------------------------------------------
# rankers: one source word against every target
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TranslationRanking:
    """One source word's targets, best first: descending score, ties in
    word order.

    `order` holds target rows and `scores` their scores in that order;
    `words` and `rows` are the target table's word list and row map, shared
    by every ranking over that table.
    """

    source_word: str
    method: str
    order: np.ndarray   # [n] target rows, best first
    scores: np.ndarray  # [n] float64, non-increasing
    words: list[str] = field(repr=False)
    rows: dict[str, int] = field(repr=False)
    fallback_pairs: int = 0

    @property
    def items(self) -> np.ndarray:
        """The ranked targets (the `order` rows), one per target word: its
        length is the ranking's pair count, which perfbench reads."""
        return self.order

    @cached_property
    def _positions(self) -> np.ndarray:
        """1-based position of each target row: the inverse of `order`."""
        positions = np.empty(len(self.order), dtype=np.intp)
        positions[self.order] = np.arange(1, len(self.order) + 1)
        return positions

    def rank_of(self, word: str) -> int | None:
        """1-based position of `word` among the targets, or None."""
        row = self.rows.get(word)
        return None if row is None else int(self._positions[row])

    def top(self, n: int) -> list[tuple[str, float]]:
        """The first `n` (word, score) pairs."""
        return [(self.words[k], s)
                for k, s in zip(self.order[:n].tolist(), self.scores[:n].tolist())]


def _ranked(source_word: str, method: str, target: WordFeatureTable, scores: np.ndarray,
            fallback_pairs: int = 0) -> TranslationRanking:
    """Order the target rows (sorted words) by descending score; the stable
    sort keeps tied words in word order."""
    order = np.argsort(-scores, kind="stable")
    return TranslationRanking(source_word, method, order, scores[order], target.words,
                              target.rows, fallback_pairs)


def _row_dots(rows: np.ndarray, vector: np.ndarray,
              valid: np.ndarray | None = None) -> np.ndarray:
    """`rows @ vector`, with BOTTOM_SCORE where `valid` is False.

    Row-wise einsum, not BLAS gemv: a row's product must not depend on
    where the row sits, or identical candidates could score apart.
    """
    if valid is None:
        valid = np.ones(len(rows), dtype=bool)
    if not valid.any():
        return np.full(len(valid), BOTTOM_SCORE)
    return np.where(valid, np.einsum("ij,j->i", rows, vector), BOTTOM_SCORE)


def linguistic_rank(x: str, source: WordFeatureTable,
                    target: WordFeatureTable) -> TranslationRanking:
    scores = _row_dots(target.linguistic, source.linguistic[source.row(x)])
    return _ranked(x, "linguistic", target, scores)


def visual_rank(x: str, source: WordFeatureTable,
                target: WordFeatureTable) -> TranslationRanking:
    """Cosine of the visual vectors; targets without one rank last. `x`
    must have one (`has_visual`)."""
    i = source.row(x)
    scores = _row_dots(target.visual, source.visual[i], target.has_visual)
    return _ranked(x, "visual", target, scores,
                   int(np.count_nonzero(~target.has_visual)))


def fused_rank(x: str, source: WordFeatureTable,
               target: WordFeatureTable) -> TranslationRanking:
    """Rank by the unweighted sum s_l + s_v of the two cosines.

    Pairs missing a visual side fall back to the linguistic term alone
    (nothing is subtracted) and are counted in `fallback_pairs`.
    """
    i = source.row(x)
    s_l = _row_dots(target.linguistic, source.linguistic[i])
    both = target.has_visual & source.has_visual[i]
    scores = np.where(both, s_l + _row_dots(target.visual, source.visual[i], both), s_l)
    return _ranked(x, "fused", target, scores, int(np.count_nonzero(~both)))


def cnn_mean_rank(x: str, source: WordFeatureTable,
                  target: WordFeatureTable) -> TranslationRanking:
    """Cosine of the two set means over global image features; targets
    without one rank last. `x` must have one (`global_mean_valid`)."""
    i = source.row(x)
    valid = target.global_mean_valid
    scores = _row_dots(target.global_mean, source.global_mean[i], valid)
    return _ranked(x, "cnn_mean", target, scores,
                   int(np.count_nonzero(~valid)))


def cnn_avgmax_rank(x: str, source: WordFeatureTable,
                    target: WordFeatureTable) -> TranslationRanking:
    """Mean over source images of the best cosine among target images.

    One product against the target's distinct image rows; every set
    member gathers its row, `maximum.reduceat` takes each set's best per
    source image, and the mean runs along the contiguous axis. Targets
    without an image set rank last; `x` must have one.
    """
    i = source.row(x)
    start, stop = source.global_offsets[i:i + 2]
    src = source.global_rows[source.global_inverse[start:stop]]
    filled = np.diff(target.global_offsets) > 0
    scores = np.full(len(target.words), BOTTOM_SCORE)
    if filled.any():
        sims = (target.global_rows @ src.T)[target.global_inverse]  # [members, m]
        best = np.maximum.reduceat(sims, target.global_offsets[:-1][filled], axis=0)
        scores[filled] = best.mean(axis=1)
    return _ranked(x, "cnn_avgmax", target, scores,
                   int(np.count_nonzero(~filled)))


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
    unranked_lexicon_words: int = 0  # lexicon source words with no ranking
    gold_outside_targets: int = 0    # ranked words with no gold target among the targets
    fallback_pairs: int = 0


def evaluate(rankings: dict[str, TranslationRanking], lexicon: GroundTruthLexicon,
             method: str, pos: str = "all", words=None) -> EvalReport:
    """MRR/P@K over the lexicon's source words, or over `words` among them
    (1-based ranks, best target).

    Source words without a ranking, and those whose acceptable targets are
    all missing from the candidate list, are skipped and counted apart.
    """
    total_rr = 0.0
    hits = {k: 0 for k in KS}
    n = unranked = outside = fallback = 0
    pool = sorted(words) if words is not None else sorted(lexicon.entries)
    for source_word in pool:
        ranking = rankings.get(source_word)
        if ranking is None:
            unranked += 1
            continue
        ranks = [r for r in (ranking.rank_of(t) for t in lexicon.entries[source_word])
                 if r is not None]
        if not ranks:
            outside += 1
            continue
        best = min(ranks)
        total_rr += 1.0 / best
        for k in KS:
            if best <= k:
                hits[k] += 1
        fallback += ranking.fallback_pairs
        n += 1
    if n == 0:
        raise EmptyResultError(f"no evaluable source words (skipped {unranked + outside})")
    return EvalReport(method=method, pos=pos, n=n, mrr=total_rr / n,
                      p_at={k: hits[k] / n for k in KS}, unranked_lexicon_words=unranked,
                      gold_outside_targets=outside, fallback_pairs=fallback)


def pos_breakdown(rankings: dict[str, TranslationRanking],
                  lexicon: GroundTruthLexicon, method: str) -> list[EvalReport]:
    """Per-POS rows; words without a tag fall in the "unk" group."""
    groups: dict[str, list[str]] = {}
    for word in lexicon.entries:
        groups.setdefault(lexicon.pos_of(word), []).append(word)
    reports = []
    for tag in sorted(groups):
        try:
            reports.append(evaluate(rankings, lexicon, method=method, pos=tag,
                                    words=groups[tag]))
        except EmptyResultError:
            continue
    return reports


# ---------------------------------------------------------------------------
# report and ranking files
# ---------------------------------------------------------------------------


def write_rankings(path, rankings_by_method: dict[str, dict[str, TranslationRanking]]) -> None:
    """source TAB method TAB comma-joined target:score (6 decimals), the top
    RANKING_WIDTH candidates per source word."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for method in sorted(rankings_by_method):
            for source_word in sorted(rankings_by_method[method]):
                top = rankings_by_method[method][source_word].top(RANKING_WIDTH)
                cells = ",".join(f"{w}:{s:.6f}" for w, s in top)
                fh.write(f"{source_word}\t{method}\t{cells}\n")


def report_rows(reports: list[EvalReport]) -> list[dict]:
    rows = []
    for r in sorted(reports, key=lambda r: (r.method, r.pos != "all", r.pos)):
        row = {"method": r.method, "pos": r.pos, "n": r.n,
               "mrr": round(r.mrr, 6)}
        for k in sorted(r.p_at):
            row[f"p{k}"] = round(100.0 * r.p_at[k], 4)  # percentages
        row["skipped"] = r.unranked_lexicon_words + r.gold_outside_targets
        row["fallback_pairs"] = r.fallback_pairs
        rows.append(row)
    return rows


def write_report_csv(path, reports: list[EvalReport]) -> None:
    rows = report_rows(reports)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def write_report_json(path, reports: list[EvalReport]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"reports": report_rows(reports)}, fh, indent=2, sort_keys=True)
        fh.write("\n")
