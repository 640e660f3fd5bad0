"""Cross-lingual word scoring and translation ranking.

Linguistic vectors are the shared-decoder embedding columns; visual
vectors aggregate a word's localized features (mean first, normalize
second). Rankings fuse the two cosines; the CNN-mean and CNN-avgmax
baselines score un-localized global image features instead. Rankings
are evaluated with mean reciprocal rank and precision at K, from one
gold-rank table per method (`gold_ranks`): each lexicon word's best gold
rank, which the report rows, `ranks.tsv` and the manifest counts read.

Each language's inputs are held as matrices (`WordFeatureTable`). A
method scores every source word against every target word as one
source-by-target matrix (`<method>_scores`); fused sums the linguistic
and visual matrices. Identical candidates get bit-identical scores, and a
ranking orders the targets as a stable sort on the score over targets in
word order would: `(-score, word)`. No row is sorted. One selection per
matrix (`ranking_heads`) finds every row's first RANKING_WIDTH places,
ties at the boundary included, and `<method>_rank` pairs one source
word's row with its head. A gold target's rank is counted from the row:
one plus the targets scored above it and the tied ones before it in word
order.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .caption.model import MultiLingualModel
from .corpus.lexicon import GroundTruthLexicon
from .corpus.vocab import Vocabulary
from .errors import EmptyResultError, NumericError
from .localization import word_occurrences
from .seeding import substream

ZERO_NORM = 1e-12
BOTTOM_SCORE = -2.0  # below any cosine; ranks unscorable targets last
KS = (1, 5, 10, 20)  # the report's precision cut-offs
RANKING_WIDTH = 20  # candidates per source word in rankings.tsv
BASELINE_SET_CAP = 100  # global image rows kept per word for the CNN baselines
UNRANKED = "unranked"          # a lexicon source word without a ranking
GOLD_OUTSIDE = "gold_outside"  # a ranked word with no gold target among the targets
AVGMAX_CHUNK = 128  # source image rows per cnn_avgmax product


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


def collect_global_feature_sets(examples, images, vocab: Vocabulary,
                                seed: int) -> dict[str, np.ndarray]:
    """Baseline feature sets: the global (region-mean) vector of each
    occurrence's image, a seeded subsample of `BASELINE_SET_CAP` of them
    for a word with more. `images` are the examples' `encode_images`.

    Mirrors the retrieval-style baselines, where a word is represented by
    whole-image features of the images it occurs with.
    """
    regions, image_rows = images
    captions, occurrences = word_occurrences(examples)
    means = regions.mean(axis=1)  # [n,D] one global vector per image
    out = {}
    for word_index, positions in occurrences.items():
        word = vocab.word(word_index)
        if len(positions) > BASELINE_SET_CAP:
            rng = substream(seed, f"subsample-global:{vocab.language_id}:{word}")
            positions = positions[np.sort(rng.choice(len(positions), size=BASELINE_SET_CAP,
                                                     replace=False))]
        out[word] = means[image_rows[captions[positions]]].astype(np.float64)
    return out


# ---------------------------------------------------------------------------
# scorers: every source word against every target, one [S, T] matrix each
# ---------------------------------------------------------------------------


def _dots(source_rows: np.ndarray, target_rows: np.ndarray,
          valid: np.ndarray | None = None) -> np.ndarray:
    """[S, T] row products, BOTTOM_SCORE in the target columns where `valid`
    is False.

    einsum, not BLAS: a row's product must not depend on where the row
    sits, or identical candidates could score apart.
    """
    if valid is not None and not valid.any():   # the target rows may be 0 wide
        return np.full((len(source_rows), len(valid)), BOTTOM_SCORE)
    scores = np.einsum("sd,td->st", source_rows, target_rows)
    if valid is not None:
        scores[:, ~valid] = BOTTOM_SCORE
    return scores


def linguistic_scores(source: WordFeatureTable, target: WordFeatureTable) -> np.ndarray:
    return _dots(source.linguistic, target.linguistic)


def visual_scores(source: WordFeatureTable, target: WordFeatureTable) -> np.ndarray:
    """Cosine of the visual vectors; targets without one score BOTTOM_SCORE.
    Rows of sources without one are meaningless."""
    return _dots(source.visual, target.visual, target.has_visual)


def fused_scores(source: WordFeatureTable, target: WordFeatureTable,
                 linguistic: np.ndarray | None = None,
                 visual: np.ndarray | None = None) -> np.ndarray:
    """The unweighted sum s_l + s_v of the two cosines where both words have
    a visual vector, the linguistic cosine alone elsewhere (nothing is
    subtracted).

    `linguistic` and `visual` are the `linguistic_scores` and
    `visual_scores` matrices of the same tables, where the caller holds
    them: the sum reads them instead of taking the two products again, and
    its values keep their bits, as the products are the same einsums of the
    same rows.
    """
    scores = linguistic_scores(source, target) if linguistic is None else linguistic.copy()
    both = source.has_visual[:, None] & target.has_visual
    if both.any():   # else either table's visual rows may be 0 wide
        if visual is None:
            visual = np.einsum("sd,td->st", source.visual, target.visual)
        np.add(scores, visual, out=scores, where=both)
    return scores


def cnn_mean_scores(source: WordFeatureTable, target: WordFeatureTable) -> np.ndarray:
    """Cosine of the two set means over global image features; targets
    without a usable mean score BOTTOM_SCORE."""
    return _dots(source.global_mean, target.global_mean, target.global_mean_valid)


def cnn_avgmax_scores(source: WordFeatureTable, target: WordFeatureTable) -> np.ndarray:
    """Mean over the source word's images of the best cosine among the
    target word's images; targets without an image set score BOTTOM_SCORE.

    The best match of each target set for each distinct source image row is
    one [targets with a set, u_s] matrix. It comes from the BLAS product
    with the target's distinct image rows, `AVGMAX_CHUNK` source rows at a
    time: every target set member gathers its row of the chunk, and
    `maximum.reduceat` takes each set's best. A source word's scores are
    the mean of its member columns, along the contiguous axis.
    """
    scores = np.full((len(source.words), len(target.words)), BOTTOM_SCORE)
    filled = np.diff(target.global_offsets) > 0
    if not filled.any():
        return scores
    starts = target.global_offsets[:-1][filled]
    best = np.empty((len(starts), len(source.global_rows)))
    for lo in range(0, len(source.global_rows), AVGMAX_CHUNK):
        sims = target.global_rows @ source.global_rows[lo:lo + AVGMAX_CHUNK].T
        best[:, lo:lo + sims.shape[1]] = np.maximum.reduceat(
            sims[target.global_inverse], starts, axis=0)
    offsets = source.global_offsets
    for i in np.flatnonzero(np.diff(offsets)):
        members = source.global_inverse[offsets[i]:offsets[i + 1]]
        scores[i, filled] = best[:, members].mean(axis=1)
    return scores


# ---------------------------------------------------------------------------
# rankers: one source word's row of a score matrix and its head
# ---------------------------------------------------------------------------


def ranking_heads(scores: np.ndarray) -> np.ndarray:
    """[S, n] the target columns of each row's first n = min(RANKING_WIDTH,
    T) places, best first: the first n of `np.argsort(-row, kind="stable")`,
    ties included, found without sorting the rows.

    One partition gives each row's n-th best score. Every entry at or above
    it is a candidate, so every tie at the boundary is one. Each row's
    candidates, in column order, fill a row of one block, padded at the end,
    and one stable argsort of the block by -score puts each row's head
    first in (-score, column) order.
    """
    n_rows, n_targets = scores.shape
    n = min(RANKING_WIDTH, n_targets)
    kth = np.partition(scores, n_targets - n, axis=1)[:, n_targets - n, None]
    rows, cols = np.divmod(np.flatnonzero(scores >= kth), n_targets)
    counts = np.bincount(rows, minlength=n_rows)   # at least n each
    place = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    negated = np.full((n_rows, counts.max()), np.inf)   # the padding sorts last
    negated[rows, place] = -scores[rows, cols]
    columns = np.empty(negated.shape, dtype=np.intp)
    columns[rows, place] = cols
    order = np.argsort(negated, axis=1, kind="stable")[:, :n]
    return np.take_along_axis(columns, order, axis=1)


def fallback_counts(method: str, source: WordFeatureTable,
                    target: WordFeatureTable) -> np.ndarray:
    """[S] each source word's fallback pairs under `method`: its targets
    that score BOTTOM_SCORE for want of a visual vector (visual), a usable
    set mean (cnn_mean) or an image set (cnn_avgmax); under fused, its pairs
    missing a visual side, which is every pair of a source without one; none
    under linguistic."""
    missing = {"linguistic": np.zeros(len(target.words), dtype=bool),
               "visual": ~target.has_visual,
               "fused": ~target.has_visual,
               "cnn_mean": ~target.global_mean_valid,
               "cnn_avgmax": np.diff(target.global_offsets) == 0}[method]
    counts = np.full(len(source.words), np.count_nonzero(missing))
    if method == "fused":
        counts[~source.has_visual] = len(target.words)
    return counts


@dataclass(eq=False)
class TranslationRanking:
    """One source word's targets, best first: descending score, ties in
    word order.

    `row` holds the word's score for every target in target word order, a
    view of its method's score matrix, and `head` the target rows of the
    first min(RANKING_WIDTH, targets) places. `words` and `rows` are the
    target table's word list and row map, shared by every ranking over that
    table. No full order is kept: `gold_ranks` counts a target's position
    from `row`.
    """

    source_word: str
    method: str
    row: np.ndarray    # [T] float64, target word order
    head: np.ndarray   # [n] target rows of the first n places
    words: list[str] = field(repr=False)
    rows: dict[str, int] = field(repr=False)
    fallback_pairs: int = 0

    @property
    def items(self) -> np.ndarray:
        """The scored targets (`row`), one per target word: its length is
        the ranking's pair count, which perfbench and the manifest counts
        read."""
        return self.row

    def top(self, n: int) -> list[tuple[str, float]]:
        """The first min(n, len(head)) (word, score) pairs."""
        head = self.head[:n]
        return [(self.words[k], s) for k, s in zip(head.tolist(), self.row[head].tolist())]


def linguistic_rank(x: str, target: WordFeatureTable, row: np.ndarray, head: np.ndarray,
                    fallback_pairs: int) -> TranslationRanking:
    """`x`'s row of `linguistic_scores`, its `ranking_heads` row and
    its `fallback_counts` entry."""
    return TranslationRanking(x, "linguistic", row, head, target.words, target.rows,
                              fallback_pairs)


def visual_rank(x: str, target: WordFeatureTable, row: np.ndarray, head: np.ndarray,
                fallback_pairs: int) -> TranslationRanking:
    """`x`'s row of `visual_scores`, its `ranking_heads` row and
    its `fallback_counts` entry."""
    return TranslationRanking(x, "visual", row, head, target.words, target.rows,
                              fallback_pairs)


def fused_rank(x: str, target: WordFeatureTable, row: np.ndarray, head: np.ndarray,
               fallback_pairs: int) -> TranslationRanking:
    """`x`'s row of `fused_scores`, its `ranking_heads` row and
    its `fallback_counts` entry."""
    return TranslationRanking(x, "fused", row, head, target.words, target.rows,
                              fallback_pairs)


def cnn_mean_rank(x: str, target: WordFeatureTable, row: np.ndarray, head: np.ndarray,
                  fallback_pairs: int) -> TranslationRanking:
    """`x`'s row of `cnn_mean_scores`, its `ranking_heads` row and
    its `fallback_counts` entry."""
    return TranslationRanking(x, "cnn_mean", row, head, target.words, target.rows,
                              fallback_pairs)


def cnn_avgmax_rank(x: str, target: WordFeatureTable, row: np.ndarray, head: np.ndarray,
                    fallback_pairs: int) -> TranslationRanking:
    """`x`'s row of `cnn_avgmax_scores`, its `ranking_heads` row and
    its `fallback_counts` entry."""
    return TranslationRanking(x, "cnn_avgmax", row, head, target.words, target.rows,
                              fallback_pairs)


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


def gold_ranks(rankings: dict[str, TranslationRanking],
               lexicon: GroundTruthLexicon) -> dict[str, int | str]:
    """The gold-rank table of one method: per lexicon source word, in word
    order, the 1-based rank of its best gold target; UNRANKED for a word
    without a ranking, GOLD_OUTSIDE for one whose gold targets are all
    missing from the candidate list.

    Target g's rank is counted from the ranking's `row`: one plus the
    targets that score above it and the tied ones before it in word order.
    """
    ranks: dict[str, int | str] = {}
    for source_word in sorted(lexicon.entries):
        ranking = rankings.get(source_word)
        if ranking is None:
            ranks[source_word] = UNRANKED
            continue
        gold = [ranking.rows[t] for t in lexicon.entries[source_word] if t in ranking.rows]
        if not gold:
            ranks[source_word] = GOLD_OUTSIDE
            continue
        row = ranking.row
        ranks[source_word] = 1 + min(
            int(np.count_nonzero(row > row[g]) + np.count_nonzero(row[:g] == row[g]))
            for g in gold)
    return ranks


def evaluate(ranks: dict[str, int | str], rankings: dict[str, TranslationRanking],
             method: str, pos: str = "all") -> EvalReport:
    """MRR/P@K over the words of a `gold_ranks` table, or of a part of one,
    and the fallback pairs of their `rankings`. The UNRANKED and GOLD_OUTSIDE
    words are skipped and counted apart."""
    best = {w: r for w, r in ranks.items() if not isinstance(r, str)}
    unranked = sum(r == UNRANKED for r in ranks.values())
    outside = len(ranks) - len(best) - unranked
    if not best:
        raise EmptyResultError(f"no evaluable source words (skipped {unranked + outside})")
    n = len(best)
    total_rr = 0.0
    for r in best.values():   # in word order; sum() rounds otherwise from Python 3.12
        total_rr += 1.0 / r
    return EvalReport(method=method, pos=pos, n=n, mrr=total_rr / n,
                      p_at={k: sum(r <= k for r in best.values()) / n for k in KS},
                      unranked_lexicon_words=unranked, gold_outside_targets=outside,
                      fallback_pairs=sum(rankings[w].fallback_pairs for w in best))


def pos_breakdown(ranks: dict[str, int | str], rankings: dict[str, TranslationRanking],
                  lexicon: GroundTruthLexicon, method: str) -> list[EvalReport]:
    """Per-POS rows of a `gold_ranks` table; words without a tag fall in the
    "unk" group, and a group with no evaluable word has no row."""
    groups: dict[str, dict[str, int | str]] = {}
    for word, rank in ranks.items():
        groups.setdefault(lexicon.pos_of(word), {})[word] = rank
    reports = []
    for tag in sorted(groups):
        try:
            reports.append(evaluate(groups[tag], rankings, method=method, pos=tag))
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


def write_ranks(path, ranks_by_method: dict[str, dict[str, int | str]],
                lexicon: GroundTruthLexicon) -> None:
    """source TAB method TAB pos TAB rank, one line per method and lexicon
    source word: its entry of the method's `gold_ranks` table."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for method in sorted(ranks_by_method):
            for source_word, rank in ranks_by_method[method].items():
                fh.write(f"{source_word}\t{method}\t{lexicon.pos_of(source_word)}\t{rank}\n")


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
