"""Joint training over per-language corpora with proportional interleaving."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, NumericError
from ..numerics import AdamState, adam_update, clip_global_norm, no_grad
from ..seeding import substream
from .model import MultiLingualModel

log = logging.getLogger("lexipivot")


@dataclass
class TrainingConfig:
    batch_size: int = 32
    # 1e-4 (the full-scale setting) converges too slowly at desk scale;
    # see the training notes in the README
    learning_rate: float = 3e-4
    max_epochs: int = 100
    patience: int = 10
    clip_norm: float = 5.0
    val_fraction: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


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

    def overall(self) -> list[EpochStat]:
        return [r for r in self.rows if r.language == "all"]


def split_by_scene(examples, val_fraction: float, seed: int, label: str = ""):
    """Train/val split keeping all captions of one image on the same side."""
    scene_ids = sorted({ex.scene_id for ex in examples})
    if len(scene_ids) < 2:
        raise ConfigError("need at least two images to build a validation split")
    order = substream(seed, f"split:{label}").permutation(len(scene_ids))
    n_val = max(1, int(round(val_fraction * len(scene_ids))))
    n_val = min(n_val, len(scene_ids) - 1)
    val_scenes = {scene_ids[i] for i in order[:n_val]}
    train = [ex for ex in examples if ex.scene_id not in val_scenes]
    val = [ex for ex in examples if ex.scene_id in val_scenes]
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


def _touched(params):
    """Sub-store of the parameters that received gradients this batch
    (a mono-lingual batch never touches the other language's embedding)."""
    from ..numerics import ParamStore

    sub = ParamStore(rng_seed=params.rng_seed)
    for name, p in params.items():
        if p.grad is not None:
            sub.add(name, p)
    return sub


def _norm_stats(norms, clip_norm: float) -> tuple[float, float, float]:
    """(mean, max, clipped fraction) of pre-clip gradient norms."""
    norms = np.asarray(norms)
    clipped = float(np.mean(norms > clip_norm)) if clip_norm > 0 else 0.0
    return float(norms.mean()), float(norms.max()), clipped


def _validation_loss(model: MultiLingualModel, examples, features, batch_size: int):
    total, count = 0.0, 0
    with no_grad():
        for batch_idx in _batches(np.arange(len(examples)), batch_size):
            batch = [examples[i] for i in batch_idx]
            loss, n = model.sequence_loss(batch, features)
            total += loss.item() * n
            count += n
    return total, count


def train(model: MultiLingualModel, data: dict[str, tuple[list, list]], features,
          config: TrainingConfig, seed: int) -> TrainingLog:
    """Optimize the model; retains the best-validation parameter snapshot.

    `data` maps language -> (train examples, val examples). Batches stay
    mono-lingual and are interleaved proportionally to corpus sizes.
    Deterministic given (model init, data, config, seed).
    """
    for lang, (train_ex, val_ex) in data.items():
        if not train_ex:
            raise ConfigError(f"language {lang!r} has an empty training split")
        if not val_ex:
            raise ConfigError(f"language {lang!r} has an empty validation split")

    adam = AdamState(learning_rate=config.learning_rate, beta1=config.beta1,
                     beta2=config.beta2, epsilon=config.epsilon)
    result = TrainingLog()
    best_snapshot = model.params.state_arrays()
    since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        queues = {}
        for lang in sorted(data):
            order = substream(seed, f"shuffle:{epoch}:{lang}").permutation(
                len(data[lang][0]))
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
            batch = [data[lang][0][i] for i in batch_idx]
            model.params.zero_grads()
            try:
                loss, n = model.sequence_loss(batch, features)
            except NumericError as exc:
                raise NumericError(f"numeric failure at epoch {epoch}: {exc}") from exc
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            loss.backward()
            grad_norms[lang].append(clip_global_norm(model.params, config.clip_norm))
            adam_update(_touched(model.params), adam)
            train_ce[lang] += value * n
            train_tokens[lang] += n
        train_s = time.perf_counter() - started

        val_ce, val_tokens = {}, {}
        for lang in sorted(data):
            val_ce[lang], val_tokens[lang] = _validation_loss(
                model, data[lang][1], features, config.batch_size)
        overall_val = sum(val_ce.values()) / sum(val_tokens.values())
        overall_train = sum(train_ce.values()) / sum(train_tokens.values())
        if not np.isfinite(overall_val):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")

        for lang in sorted(data):
            result.rows.append(EpochStat(epoch, lang, train_ce[lang] / train_tokens[lang],
                                         val_ce[lang] / val_tokens[lang],
                                         *_norm_stats(grad_norms[lang], config.clip_norm)))
        result.rows.append(EpochStat(epoch, "all", overall_train, overall_val,
                                     *_norm_stats(sum(grad_norms.values(), []),
                                                  config.clip_norm)))
        result.epochs_run = epoch
        log.info("epoch %d: %.2f s wall, %.0f training tokens/s; train loss %.4f, "
                 "val loss %.4f", epoch, time.perf_counter() - started,
                 sum(train_tokens.values()) / train_s, overall_train, overall_val)

        if overall_val < result.best_val_loss:
            result.best_val_loss = overall_val
            result.best_epoch = epoch
            best_snapshot = model.params.state_arrays()
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    model.params.load_state_arrays(best_snapshot)
    return result
