"""Joint training over per-language corpora with proportional interleaving."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from ..corpus.vocab import pad_tokens
from ..errors import ConfigError, NumericError
# perfbench wraps `adam_update` and `clip_global_norm` at these names (ROADMAP item 7)
from ..numerics import AdamState, adam_update, clip_global_norm, no_grad
from ..seeding import substream
from .model import MultiLingualModel

log = logging.getLogger("lexipivot")

CLIP_NORM = 5.0  # global gradient-norm clip of every training batch


@dataclass
class TrainingConfig:
    batch_size: int = 32
    # 1e-4 (the full-scale setting) converges too slowly at desk scale;
    # see the training notes in the README
    learning_rate: float = 3e-4
    max_epochs: int = 100
    patience: int = 10
    val_fraction: float = 0.1

    def validate(self):
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("training.batch_size, training.max_epochs and "
                              "training.patience must be >= 1")
        if not self.learning_rate > 0:
            raise ConfigError(f"training.learning_rate must be > 0, got {self.learning_rate}")
        if not 0 < self.val_fraction < 1:
            raise ConfigError(f"training.val_fraction must be in (0, 1), "
                              f"got {self.val_fraction}")


@dataclass(frozen=True)
class EpochStat:
    epoch: int
    language: str  # per-language rows plus one "all" row per epoch
    train_loss: float
    val_loss: float
    # pre-clip global gradient norm over the epoch's batches of that language
    grad_norm_mean: float
    grad_norm_max: float
    clipped_fraction: float  # share of those batches whose norm was clipped


@dataclass
class TrainingLog:
    rows: list[EpochStat] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = float("inf")
    epochs_run: int = 0


def split_by_scene(examples, val_fraction: float, seed: int, label: str = ""):
    """Train/val split keeping all captions of one image on the same side."""
    image_rows = sorted({ex.image_row for ex in examples})
    if len(image_rows) < 2:
        raise ConfigError("need at least two images to build a validation split")
    order = substream(seed, f"split:{label}").permutation(len(image_rows))
    n_val = max(1, int(round(val_fraction * len(image_rows))))
    n_val = min(n_val, len(image_rows) - 1)
    val_images = {image_rows[i] for i in order[:n_val]}
    train = [ex for ex in examples if ex.image_row not in val_images]
    val = [ex for ex in examples if ex.image_row in val_images]
    return train, val


def interleave(counts: dict[str, int]) -> list[str]:
    """Proportional schedule over languages (largest-deficit rule).

    Sizes 200:100 alternate two-to-one; every language appears exactly
    counts[lang] times.
    """
    remaining = {k: int(v) for k, v in counts.items() if v > 0}
    total = sum(remaining.values())
    shares = {k: v / total for k, v in remaining.items()}
    deficit = {k: 0.0 for k in remaining}
    schedule = []
    for _ in range(total):
        for k in deficit:
            deficit[k] += shares[k]
        live = [k for k in sorted(remaining) if remaining[k] > 0]
        pick = max(live, key=lambda k: deficit[k])
        schedule.append(pick)
        deficit[pick] -= 1.0
        remaining[pick] -= 1
    return schedule


def _batches(indices: np.ndarray, batch_size: int):
    for start in range(0, len(indices), batch_size):
        yield indices[start:start + batch_size]


@dataclass(frozen=True)
class PaddedCaptions:
    """One language's captions padded once into one token matrix, with the
    region grids of their images; a batch is an index slice of both."""

    language: str
    tokens: np.ndarray      # [N,W] sentinel-wrapped ids, PAD after each caption's end
    lengths: np.ndarray     # [N] tokens per caption
    regions: np.ndarray     # [M,K,F] the language's region grids, as read
    image_rows: np.ndarray  # [N] each caption's image row in `regions`

    def __len__(self) -> int:
        return len(self.lengths)

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(tokens [B,L] cut to the batch's widest caption, region features
        [B,K,F]) of the captions at `indices`."""
        width = self.lengths[indices].max()
        return self.tokens[indices, :width], self.regions[self.image_rows[indices]]


def pad_captions(language: str, examples, regions) -> PaddedCaptions:
    """The examples of one language padded once, over the language's region
    grids [M,K,F]."""
    tokens, lengths = pad_tokens(examples)
    image_rows = np.fromiter((ex.image_row for ex in examples), np.intp, len(examples))
    return PaddedCaptions(language, tokens, lengths, regions, image_rows)


def _norm_stats(norms) -> tuple[float, float, float]:
    """(mean, max, clipped fraction) of pre-clip gradient norms."""
    norms = np.asarray(norms)
    return float(norms.mean()), float(norms.max()), float(np.mean(norms > CLIP_NORM))


def _validation_loss(model: MultiLingualModel, captions: PaddedCaptions, batch_size: int):
    total, count = 0.0, 0
    with no_grad():
        for batch_idx in _batches(np.arange(len(captions)), batch_size):
            loss, n = model.sequence_loss(captions.language, *captions.batch(batch_idx))
            total += loss.item() * n
            count += n
    return total, count


def train(model: MultiLingualModel, data: dict[str, tuple[list, list]], regions,
          config: TrainingConfig, seed: int) -> TrainingLog:
    """Optimize the model; retains the best-validation parameter snapshot.

    `data` maps language -> (train examples, val examples), both non-empty
    as `split_by_scene` builds them, and `regions` maps language -> the
    region grids [M,K,F] that its examples' `image_row`s index. Batches stay
    mono-lingual and are interleaved proportionally to corpus sizes.
    Deterministic given (model init, data, config, seed).
    """
    padded = {lang: tuple(pad_captions(lang, split, regions[lang]) for split in data[lang])
              for lang in data}
    adam = AdamState(learning_rate=config.learning_rate)
    result = TrainingLog()
    best = model.params.data.copy()
    since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        queues = {}
        for lang in sorted(padded):
            order = substream(seed, f"shuffle:{epoch}:{lang}").permutation(
                len(padded[lang][0]))
            queues[lang] = list(_batches(order, config.batch_size))
        schedule = interleave({lang: len(q) for lang, q in queues.items()})

        started = time.perf_counter()
        train_ce = {lang: 0.0 for lang in data}
        train_tokens = {lang: 0 for lang in data}
        grad_norms = {lang: [] for lang in data}
        cursor = {lang: 0 for lang in data}
        for lang in schedule:
            batch_idx = queues[lang][cursor[lang]]
            cursor[lang] += 1
            model.params.zero_grads()
            try:
                loss, n = model.sequence_loss(lang, *padded[lang][0].batch(batch_idx))
            except NumericError as exc:
                raise NumericError(f"numeric failure at epoch {epoch}: {exc}") from exc
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            loss.backward()
            grad_norms[lang].append(clip_global_norm(model.params, CLIP_NORM))
            adam_update(model.params, adam)
            train_ce[lang] += value * n
            train_tokens[lang] += n
        train_s = time.perf_counter() - started

        val_ce, val_tokens = {}, {}
        for lang in sorted(padded):
            val_ce[lang], val_tokens[lang] = _validation_loss(
                model, padded[lang][1], config.batch_size)
        overall_val = sum(val_ce.values()) / sum(val_tokens.values())
        overall_train = sum(train_ce.values()) / sum(train_tokens.values())
        if not np.isfinite(overall_val):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")

        for lang in sorted(data):
            result.rows.append(EpochStat(epoch, lang, train_ce[lang] / train_tokens[lang],
                                         val_ce[lang] / val_tokens[lang],
                                         *_norm_stats(grad_norms[lang])))
        result.rows.append(EpochStat(epoch, "all", overall_train, overall_val,
                                     *_norm_stats(sum(grad_norms.values(), []))))
        result.epochs_run = epoch
        log.info("epoch %d: %.2f s wall, %.0f training tokens/s; train loss %.4f, "
                 "val loss %.4f", epoch, time.perf_counter() - started,
                 sum(train_tokens.values()) / train_s, overall_train, overall_val)

        if overall_val < result.best_val_loss:
            result.best_val_loss = overall_val
            result.best_epoch = epoch
            best = model.params.data.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    model.params.data[...] = best
    return result
