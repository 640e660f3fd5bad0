"""Cross-lingual word scoring and translation ranking.

Linguistic vectors are the shared-decoder embedding columns; visual
vectors aggregate a word's localized features (mean first, normalize
second). Rankings fuse the two cosines; the CNN-mean and CNN-avgmax
baselines score un-localized global image features instead.

Each language's inputs are held as matrices (`WordFeatureTable`).
`build_table` does no per-word arithmetic: set means are taken per set
size and normalized by batched dots, so that every row keeps the bits of
the per-word mean divided by its `np.linalg.norm`, and the distinct
global image rows come from one dict over the unit rows' bytes,
normalized in runs of words (`value_runs`). The tables hold the rows as
`extract` computed them, so the linguistic rows (the embedding columns,
each a set of one) are normalized here as the visual ones are, and no
scale of a table moves a cosine.

`METHODS` defines each method once: its scorer, the source rows it can
score and the target rows it scores BOTTOM_SCORE. A method scores every
source word against every target word as one source-by-target matrix
(`<method>_scores`, held with its heads as `MethodScores`); fused sums the
linguistic and visual matrices. Identical candidates get bit-identical
scores, and a ranking orders the targets as a stable sort on the score
over targets in word order would: `(-score, word)`. No row is sorted: one
selection per matrix (`ranking_heads`) finds every row's first
RANKING_WIDTH places, ties at the boundary included. `write_rankings`
formats each line of a method with one format string over its heads and
their scores.

Rankings are evaluated with mean reciprocal rank and precision at K. A
gold target's rank is counted from the row: one plus the targets scored
above it and the tied ones before it in word order, for every gold pair
of the lexicon (`GoldIndex`) at once. Each method's `gold_ranks` array
holds every lexicon word's best gold rank, or UNRANKED or GOLD_OUTSIDE;
the report rows, `ranks.tsv` and the manifest counts read only these
arrays and the `MethodScores`.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .caption.model import MultiLingualModel
from .corpus.lexicon import GroundTruthLexicon
from .corpus.vocab import Vocabulary, pad_tokens
from .errors import EmptyResultError, FormatError
from .localization import word_occurrences
from .seeding import substream

ZERO_NORM = 1e-12
BOTTOM_SCORE = -2.0  # below any cosine; ranks unscorable targets last
KS = (1, 5, 10, 20)  # the report's precision cut-offs
RANKING_WIDTH = 20  # candidates per source word in rankings.tsv
BASELINE_SET_CAP = 100  # global image rows kept per word for the CNN baselines
UNRANKED = -1      # the gold rank of a lexicon source word without a ranking
GOLD_OUTSIDE = -2  # that of a ranked word with no gold target among the targets
AVGMAX_CHUNK = 128  # source image rows per cnn_avgmax product
# values per run of a long array pass: a larger temporary costs more in
# fresh pages than its fewer numpy calls save
RUN_VALUES = 1 << 14


def value_runs(sizes: list[int]) -> list[tuple[int, int]]:
    """Consecutive [lo, hi) ranges over items of `sizes` values each, of
    about RUN_VALUES values: a range ends before the item at which the
    values before it pass a multiple of RUN_VALUES. The ranges cover every
    item, in order."""
    starts = np.cumsum([0, *sizes])[:-1]
    cuts = (np.flatnonzero(np.diff(starts // RUN_VALUES)) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(sizes)]))


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise normalization; (near) zero rows stay zero. The norms are
    those of `np.linalg.norm(rows, axis=1)`; the quotients overwrite the
    squares the norms were summed from, so the rows are copied once."""
    squares = rows * rows
    norms = np.sqrt(np.add.reduce(squares, axis=1, keepdims=True))
    norms[norms < ZERO_NORM] = 1.0
    return np.divide(rows, norms, out=squares)


def _row_bytes(rows: np.ndarray) -> list[bytes]:
    """Each row's bytes, read as one void item per row."""
    if not rows.shape[1]:
        return [b""] * len(rows)
    return rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel().tolist()


def _word_sets(words: list[str], sets: dict[str, np.ndarray]) -> tuple[list, np.ndarray, int]:
    """Each word's set as a float64 array, an empty one for a word without a
    set, the set sizes and the width: that of the first set, 0 when there
    is none."""
    width = next((np.shape(sets[w])[-1] for w in words if w in sets), 0)
    empty = np.zeros((0, width))
    held = [np.asarray(sets[w], dtype=np.float64) if w in sets else empty for w in words]
    return held, np.array([len(rows) for rows in held], dtype=np.intp).reshape(len(words)), width


def _size_groups(lengths: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Each non-zero size of `lengths`, smallest first, with the positions
    that hold it."""
    # np.unique would import numpy.ma on its first call, 19 ms, more than a
    # default table takes to build
    return [(size, np.flatnonzero(lengths == size))
            for size in np.flatnonzero(np.bincount(lengths[lengths > 0])).tolist()]


def _unit_means(sets: list, lengths: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each set's mean, then one normalization, rounded as `np.mean(set,
    axis=0)` divided by its `np.linalg.norm` rounds it, and a flag that the
    set is non-empty with a mean of norm at least ZERO_NORM; other rows are
    zero.

    The sets of one size are stacked and averaged together along their
    member axis, which sums each set's members in the order that `np.mean`
    of the set alone does (`np.add.reduceat` sums each column pairwise
    instead, and rounds otherwise). Each norm is the batched product of the
    mean with itself, the BLAS dot that `np.linalg.norm` of one vector takes.
    """
    means = np.zeros((len(sets), width))
    for _, group in _size_groups(lengths):
        means[group] = np.stack([sets[i] for i in group.tolist()]).mean(axis=1)
    norms = np.sqrt(np.matmul(means[:, None, :], means[:, :, None])[:, 0, 0])
    valid = norms >= ZERO_NORM
    means[valid] /= norms[valid, None]
    means[~valid] = 0.0
    return means, valid


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
    linguistic: np.ndarray         # [n, d] unit embedding rows
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


def linguistic_vectors(model: MultiLingualModel, language: str,
                       vocab: Vocabulary) -> dict[str, np.ndarray]:
    """Each content word's embedding column as one float64 row [1, E], as
    the model holds it; `build_table` normalizes it."""
    embed = model.embedding(language).data
    return {word: embed[:, vocab.word_to_index[word]].astype(np.float64)[None]
            for word in vocab.content_words()}


@contextmanager
def _bounded_norms(language_id: str, kind: str):
    """Raise FormatError naming the language's `kind` table where a norm
    overflows: a row or set mean with a value of about 1e154 or more would
    otherwise become a zero vector, although its cosines do not depend on
    its scale."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise FormatError(f"the {kind} table of {language_id!r:.40}: a feature value is too "
                          f"large to normalize its row ({exc})") from exc


def build_table(language_id: str, linguistic: dict[str, np.ndarray],
                visual_sets: dict[str, np.ndarray],
                global_sets: dict[str, np.ndarray]) -> WordFeatureTable:
    """Stack one language's features into matrices.

    `linguistic` holds each word's embedding row [1, d] (as
    `linguistic_vectors` makes it) and names the table's words. A word's
    linguistic and visual vectors are the unit means of its `linguistic`
    row and of its `visual_sets` rows, normalized alike. `global_sets`
    holds each word's global image rows for the baselines. Sets of words
    outside `linguistic` are dropped. The visual rows are 0 wide when no
    word has a visual vector. A value too large to normalize, or a
    linguistic row of norm below ZERO_NORM, is a FormatError.
    """
    words = sorted(linguistic)
    sets, lengths, width = _word_sets(words, linguistic)
    with _bounded_norms(language_id, "linguistic"):
        ling, has_linguistic = _unit_means(sets, lengths, width)
    if not has_linguistic.all():
        raise FormatError(f"the linguistic table of {language_id!r:.40}: the row of "
                          f"{words[np.argmin(has_linguistic)]!r:.40} has a norm below "
                          f"{ZERO_NORM:g}, too small to normalize")
    sets, lengths, width = _word_sets(words, visual_sets)
    with _bounded_norms(language_id, "visual"):
        visual, has_visual = _unit_means(sets, lengths, width)
    sets, lengths, width = _word_sets(words, global_sets)
    index: dict[bytes, int] = {}   # the distinct unit rows, by their bytes
    inverse: list[int] = []
    with _bounded_norms(language_id, "global"):
        global_mean, global_mean_valid = _unit_means(sets, lengths, width)
        for lo, hi in value_runs([rows.size for rows in sets]):
            rows = np.concatenate([np.zeros((0, width)), *sets[lo:hi]])
            inverse += [index.setdefault(key, len(index))
                        for key in _row_bytes(_unit_rows(rows))]
    return WordFeatureTable(
        language_id=language_id,
        words=words,
        linguistic=ling,
        visual=visual if has_visual.any() else np.zeros((len(words), 0)),
        has_visual=has_visual,
        global_mean=global_mean,
        global_mean_valid=global_mean_valid,
        global_rows=np.frombuffer(b"".join(index), dtype=np.float64).reshape(len(index), width),
        global_inverse=np.array(inverse, dtype=np.intp),
        global_offsets=np.concatenate([[0], np.cumsum(lengths)]),
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
    captions, occurrences = word_occurrences(*pad_tokens(examples))
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


def _every(table: WordFeatureTable) -> np.ndarray:
    return np.ones(len(table.words), dtype=bool)


def _with_set(table: WordFeatureTable) -> np.ndarray:
    """The rows of words with a non-empty global image set."""
    return np.diff(table.global_offsets) > 0


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
                 linguistic: np.ndarray, visual: np.ndarray | None) -> np.ndarray:
    """The unweighted sum s_l + s_v of the two cosines where both words have
    a visual vector, the linguistic cosine alone elsewhere (nothing is
    subtracted). `linguistic` and `visual` are the `linguistic_scores` and
    `visual_scores` matrices of the same tables; `visual` is None when no
    source word has a visual vector."""
    scores = linguistic.copy()
    both = source.has_visual[:, None] & target.has_visual
    if both.any():
        np.add(scores, visual, out=scores, where=both)
    return scores


def cnn_mean_scores(source: WordFeatureTable, target: WordFeatureTable) -> np.ndarray:
    """Cosine of the two set means over global image features; targets
    without a usable mean score BOTTOM_SCORE."""
    return _dots(source.global_mean, target.global_mean, target.global_mean_valid)


def _member_blocks(offsets: np.ndarray, inverse: np.ndarray,
                   width: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The non-empty sets of an offsets array, those of one size together in
    `value_runs` runs at `width` values per member: each run's set positions
    and their members [sets, size] as entries of `inverse`."""
    blocks = []
    for size, group in _size_groups(np.diff(offsets)):
        for lo, hi in value_runs([size * width] * len(group)):
            sets = group[lo:hi]
            blocks.append((sets, inverse[offsets[sets, None] + np.arange(size)]))
    return blocks


def cnn_avgmax_scores(source: WordFeatureTable, target: WordFeatureTable) -> np.ndarray:
    """Mean over the source word's images of the best cosine among the
    target word's images; targets without an image set score BOTTOM_SCORE.

    The best match of each target set for each distinct source image row is
    one [targets, u_s] matrix. It comes from the BLAS product with the
    target's distinct image rows, `AVGMAX_CHUNK` source rows at a time. The
    target sets of one size, a block of about RUN_VALUES values at a time
    (`_member_blocks`), gather their members' rows of the product as [sets,
    size, chunk] and take `max(axis=1)`: `np.maximum` one member at a time
    in set order, so the signed zeros come out as a per-set reduction gives
    them. The source sets of one size, cut the same way, take `best[:,
    members]` as [targets, sets, size] and average along the contiguous
    last axis, which sums each set as the `mean(axis=1)` of its columns
    alone does. A target without a set has BOTTOM_SCORE in every column,
    so its means are BOTTOM_SCORE exactly.
    """
    scores = np.full((len(source.words), len(target.words)), BOTTOM_SCORE)
    if not _with_set(target).any():   # the target rows may be 0 wide
        return scores
    n_rows = len(source.global_rows)
    best = np.full((len(target.words), n_rows), BOTTOM_SCORE)
    blocks = _member_blocks(target.global_offsets, target.global_inverse,
                            min(AVGMAX_CHUNK, n_rows))
    for lo in range(0, n_rows, AVGMAX_CHUNK):
        sims = target.global_rows @ source.global_rows[lo:lo + AVGMAX_CHUNK].T
        for sets, members in blocks:
            best[sets, lo:lo + sims.shape[1]] = sims[members].max(axis=1)
    for rows, members in _member_blocks(source.global_offsets, source.global_inverse,
                                        len(target.words)):
        scores[rows] = best[:, members].mean(axis=2).T
    return scores


# Each method: its scorer, the source rows it can score and the target rows
# it scores BOTTOM_SCORE, each a fallback pair of every source. Fused also
# falls back on every target of a source without a visual vector.
METHODS = {
    "linguistic": (linguistic_scores, _every, lambda t: ~_every(t)),
    "visual": (visual_scores, lambda t: t.has_visual, lambda t: ~t.has_visual),
    "fused": (fused_scores, _every, lambda t: ~t.has_visual),
    "cnn_mean": (cnn_mean_scores, lambda t: t.global_mean_valid,
                 lambda t: ~t.global_mean_valid),
    "cnn_avgmax": (cnn_avgmax_scores, _with_set, lambda t: ~_with_set(t)),
}


# ---------------------------------------------------------------------------
# rankings: each row's first places, without sorting the rows
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


@dataclass(eq=False)
class MethodScores:
    """One method's scoring of every source word against every target word:
    its rankings, one row of `scores` and of `heads` per source word.

    `scorable` flags the source rows the method can score, and `fallbacks`
    holds each row's fallback pairs, its targets scored BOTTOM_SCORE for
    want of what the method reads (`METHODS`). `scores` is the [S, T] matrix
    and `heads` its `ranking_heads`; both are None when no source row is
    scorable. Rows of unscorable sources are meaningless.
    """

    scorable: np.ndarray              # [S] bool
    fallbacks: np.ndarray             # [S] fallback pairs
    scores: np.ndarray | None = None  # [S, T] float64
    heads: np.ndarray | None = None   # [S, min(RANKING_WIDTH, T)] target rows


@dataclass(eq=False)
class TranslationRanking:
    """One scorable source word's row of a `MethodScores`: `items`, a view
    of its scores for every target, whose length is the ranking's pair
    count, and its fallback pairs. Only the benchmark's pair count reads
    it; every output reads the `MethodScores`."""

    items: np.ndarray   # [T] float64, target word order
    fallback_pairs: int = 0


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


@dataclass(eq=False)
class GoldIndex:
    """A lexicon against one source and one target table: its source words
    in word order, each one's POS ("unk" for a word without a tag) and
    source row (-1 for a word the source table lacks), and one (word, target
    row) pair per gold target the target table holds."""

    words: list[str]
    pos: np.ndarray           # [W] str
    source_rows: np.ndarray   # [W] intp
    pair_words: np.ndarray    # [P] index into `words`
    pair_targets: np.ndarray  # [P] target row


def gold_index(lexicon: GroundTruthLexicon, source_rows: dict[str, int],
               target_rows: dict[str, int]) -> GoldIndex:
    """Index `lexicon` against the word -> row maps of the two tables."""
    words = sorted(lexicon.entries)
    pairs = [(i, target_rows[t]) for i, w in enumerate(words)
             for t in lexicon.entries[w] if t in target_rows]
    pair_words, pair_targets = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return GoldIndex(words, np.array([lexicon.pos_of(w) for w in words], dtype=str),
                     np.array([source_rows.get(w, -1) for w in words], dtype=np.intp),
                     pair_words, pair_targets)


def gold_ranks(scored: MethodScores, gold: GoldIndex) -> np.ndarray:
    """[W] the gold ranks of one method: per lexicon source word, in word
    order, the 1-based rank of its best gold target; UNRANKED for a word
    the method does not rank, GOLD_OUTSIDE for one whose gold targets are
    all missing from the candidate list.

    Target g's rank is counted from the source word's row of the score
    matrix: one plus the targets that score above it and the tied ones
    before it in word order. The gold pairs are counted in `value_runs`
    runs of about RUN_VALUES row entries, and a word takes its least count.
    """
    ranked = gold.source_rows >= 0
    ranked[ranked] = scored.scorable[gold.source_rows[ranked]]
    outside = np.iinfo(np.intp).max
    best = np.full(len(gold.words), outside)
    counted = np.flatnonzero(ranked[gold.pair_words])
    if len(counted):
        n_targets = scored.scores.shape[1]
        for lo, hi in value_runs([n_targets] * len(counted)):
            word, g = gold.pair_words[counted[lo:hi]], gold.pair_targets[counted[lo:hi]]
            rows = scored.scores[gold.source_rows[word]]
            at = rows[np.arange(len(g)), g, None]
            before = np.arange(n_targets) < g[:, None]
            np.minimum.at(best, word, 1 + np.count_nonzero(rows > at, axis=1)
                          + np.count_nonzero((rows == at) & before, axis=1))
    best[best == outside] = GOLD_OUTSIDE
    best[~ranked] = UNRANKED
    return best


def evaluate(ranks: np.ndarray, fallbacks: np.ndarray, method: str,
             pos: str = "all") -> EvalReport:
    """MRR/P@K over the words of a `gold_ranks` array, or of a part of one,
    and the sum of their `fallbacks` (pairs per word). The UNRANKED and
    GOLD_OUTSIDE words are skipped and counted apart."""
    evaluable = ranks > 0
    best = ranks[evaluable]
    n = len(best)
    unranked = int(np.count_nonzero(ranks == UNRANKED))
    outside = len(ranks) - n - unranked
    if not n:
        raise EmptyResultError(f"no evaluable source words (skipped {unranked + outside})")
    # cumsum adds in word order, one term at a time, as a Python loop does;
    # np.sum adds pairwise and rounds otherwise
    total_rr = float(np.cumsum(1.0 / best)[-1])
    return EvalReport(method=method, pos=pos, n=n, mrr=total_rr / n,
                      p_at={k: int(np.count_nonzero(best <= k)) / n for k in KS},
                      unranked_lexicon_words=unranked, gold_outside_targets=outside,
                      fallback_pairs=int(fallbacks[evaluable].sum()))


def pos_breakdown(ranks: np.ndarray, fallbacks: np.ndarray, gold: GoldIndex,
                  method: str) -> list[EvalReport]:
    """Per-POS rows (`gold.pos`) of a `gold_ranks` array and its
    `fallbacks`; a group with no evaluable word has no row."""
    reports = []
    for tag in sorted(set(gold.pos.tolist())):
        group = gold.pos == tag
        try:
            reports.append(evaluate(ranks[group], fallbacks[group], method=method, pos=tag))
        except EmptyResultError:
            continue
    return reports


# ---------------------------------------------------------------------------
# report and ranking files
# ---------------------------------------------------------------------------


def write_rankings(path, scored: dict[str, MethodScores], source_words: list[str],
                   target_words: list[str]) -> None:
    """source TAB method TAB comma-joined target:score (6 decimals), the top
    RANKING_WIDTH candidates of each source word a method scores, methods
    and source words in order.

    A method's lines are one `%` format each, over its stacked heads, their
    target words and their scores, and are written in `value_runs` runs of
    about RUN_VALUES fields.
    """
    sources = np.array(source_words, dtype=object)
    targets = np.array(target_words, dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for method in sorted(scored):
            s = scored[method]
            scorable = np.flatnonzero(s.scorable)
            if not len(scorable):
                continue
            width = 2 + 2 * s.heads.shape[1]
            line = "%s\t%s\t" + ",".join(["%s:%.6f"] * s.heads.shape[1]) + "\n"
            for lo, hi in value_runs([width] * len(scorable)):
                rows = scorable[lo:hi]
                heads = s.heads[rows]
                fields = np.empty((len(rows), width), dtype=object)
                fields[:, 0], fields[:, 1] = sources[rows], method
                fields[:, 2::2] = targets[heads]
                fields[:, 3::2] = s.scores[rows[:, None], heads].tolist()
                fh.write("".join([line % tuple(f) for f in fields.tolist()]))


def write_ranks(path, ranks: dict[str, np.ndarray], gold: GoldIndex) -> None:
    """source TAB method TAB pos TAB rank, one line per method and lexicon
    source word: its entry of the method's `gold_ranks` array, the reserved
    ones written "unranked" and "gold_outside"."""
    labels = {UNRANKED: "unranked", GOLD_OUTSIDE: "gold_outside"}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for method in sorted(ranks):
            fh.write("".join([f"{w}\t{method}\t{p}\t{labels.get(r, r)}\n" for w, p, r
                              in zip(gold.words, gold.pos.tolist(), ranks[method].tolist())]))


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
