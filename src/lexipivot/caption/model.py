"""Multi-lingual attention caption model.

One affine+tanh region encoder and one LSTM decoder are shared by every
registered language; each language owns only its embedding matrix, which
is also the output projection (tied weights), so the hidden size equals
the embedding size. The context vector of each decode step is additive
attention over the encoded regions (Show, Attend and Tell).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..corpus.vocab import PAD
from ..errors import ConfigError, FormatError, InputError, ShapeError
from ..numerics import (
    LstmWeights,
    ParamStore,
    Tensor,
    add,
    additive_attention,
    concat_cols,
    cross_entropy_rows,
    decoder_unroll,
    gather_cols,
    lstm_step,
    matmul,
    reshape,
    row_slice,
    scale,
    tanh,
)
from ..seeding import substream

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelDims:
    feature_dim: int = 32   # raw region feature size fed to the encoder
    embed_dim: int = 64     # D = H: embedding, context, and hidden size
    attn_dim: int = 32      # hidden layer of the attention scorer
    num_regions: int = 9    # K
    max_len: int = 16       # caption length cap including sentinels


def param_shapes(dims: ModelDims, vocab_sizes: dict[str, int]) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of a model built with these settings."""
    d, a = dims.embed_dim, dims.attn_dim  # hidden size = embedding size
    shapes = {
        "encoder.weight": (dims.feature_dim, d),
        "encoder.bias": (d,),
        "lstm.w_ih": (2 * d, 4 * d),
        "lstm.w_hh": (d, 4 * d),
        "lstm.bias": (4 * d,),
        "attn.w1": (2 * d, a),
        "attn.b1": (a,),
        "attn.w2": (a, 1),
        "attn.b2": (1,),
    }
    for lang, n in sorted(vocab_sizes.items()):
        shapes[f"embed.{lang}"] = (d, n)
    return shapes


class MultiLingualModel:
    def __init__(self, dims: ModelDims, vocab_sizes: dict[str, int], params: ParamStore,
                 dtype=np.float64):
        self.dims = dims
        self.vocab_sizes = dict(vocab_sizes)
        self.params = params
        self.dtype = np.dtype(dtype).type

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, dims: ModelDims, vocab_sizes: dict[str, int], seed: int,
              dtype=np.float64) -> "MultiLingualModel":
        if not vocab_sizes:
            raise ConfigError("a caption model needs at least one language")
        params = ParamStore(rng_seed=seed)
        for name, shape in param_shapes(dims, vocab_sizes).items():
            if len(shape) == 1:  # biases start at zero
                data = np.zeros(shape)
            else:
                s = 1.0 / np.sqrt(shape[0])
                data = substream(seed, f"init:{name}").uniform(-s, s, size=shape)
            params.add(name, Tensor(data.astype(dtype)))
        h = dims.embed_dim
        params["lstm.bias"].data[h:2 * h] = 1.0  # forget-gate bias
        return cls(dims, vocab_sizes, params, dtype=dtype)

    def embedding(self, language: str) -> Tensor:
        name = f"embed.{language}"
        if name not in self.params:
            raise KeyError(f"language {language!r} is not registered with this model")
        return self.params[name]

    def lstm_weights(self) -> LstmWeights:
        return LstmWeights(self.params["lstm.w_ih"], self.params["lstm.w_hh"],
                           self.params["lstm.bias"])

    # -- forward pieces -----------------------------------------------------

    def encode(self, features) -> Tensor:
        """Raw region features [B,K,D_in] (or [K,D_in]) -> regions [B,K,D]."""
        arr = np.asarray(features, dtype=self.dtype)
        if arr.ndim == 2:
            arr = arr[None]
        if arr.ndim != 3 or arr.shape[1] != self.dims.num_regions \
                or arr.shape[2] != self.dims.feature_dim:
            raise ShapeError(
                f"expected region features [B,{self.dims.num_regions},"
                f"{self.dims.feature_dim}], got {arr.shape}")
        b, k, d_in = arr.shape
        flat = Tensor(arr.reshape(b * k, d_in))
        out = tanh(add(matmul(flat, self.params["encoder.weight"]),
                       self.params["encoder.bias"]))
        return reshape(out, (b, k, self.dims.embed_dim))

    def attention_precompute(self, regions: Tensor) -> Tensor:
        """Region half of the attention scores, shared across decode steps."""
        b, k, d = regions.shape
        flat = reshape(regions, (b * k, d))
        w1_region = row_slice(self.params["attn.w1"], self.dims.embed_dim,
                              self.dims.embed_dim + d)
        return add(matmul(flat, w1_region), self.params["attn.b1"])

    def attention_weights(self) -> tuple[Tensor, Tensor, Tensor]:
        """(w1, w2, b2) of the attention scorer."""
        return self.params["attn.w1"], self.params["attn.w2"], self.params["attn.b2"]

    def attend(self, h_prev: Tensor, regions: Tensor,
               region_part: Tensor | None = None) -> tuple[Tensor, Tensor]:
        """Context vector and weights for one step: ([B,D], [B,K]).

        Gradients flow through the context vector; the weights are data.
        """
        if region_part is None:
            region_part = self.attention_precompute(regions)
        return additive_attention(h_prev, regions, region_part, *self.attention_weights())

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        h = Tensor(np.zeros((batch, self.dims.embed_dim), dtype=self.dtype))
        return h, Tensor(h.data.copy())

    def step(self, language: str, state: tuple[Tensor, Tensor], prev_tokens,
             regions: Tensor, region_part: Tensor | None = None):
        """One teacher-forced step for a batch, as extraction decodes.

        Returns (logits [B,N], new (h, c), alpha [B,K], context [B,D]).
        """
        embed = self.embedding(language)
        w_prev = gather_cols(embed, np.asarray(prev_tokens, dtype=np.intp))
        context, alpha = self.attend(state[0], regions, region_part)
        state = lstm_step(concat_cols([w_prev, context]), state, self.lstm_weights())
        return matmul(state[0], embed), state, alpha, context

    # -- losses -------------------------------------------------------------

    def sequence_loss(self, examples, features_by_id) -> tuple[Tensor, int]:
        """Teacher-forced NLL averaged over non-pad target tokens.

        The batch may mix languages; each language is unrolled separately
        by one `decoder_unroll`, its hidden states are projected onto the
        tied embedding in one [T*B,V] product, and the per-language sums
        are combined before averaging.
        """
        if not examples:
            raise InputError("sequence_loss needs a non-empty batch")
        by_language: dict[str, list] = {}
        for ex in examples:
            if len(ex.tokens) > self.dims.max_len:
                raise InputError(
                    f"example of {len(ex.tokens)} tokens exceeds the unroll cap "
                    f"{self.dims.max_len}")
            by_language.setdefault(ex.language_id, []).append(ex)

        total: Tensor | None = None
        count = 0
        for language in sorted(by_language):
            group = by_language[language]
            tokens = _pad_tokens(group)
            feats = np.stack([np.asarray(features_by_id[ex.scene_id]) for ex in group])
            embed = self.embedding(language)
            regions = self.encode(feats)
            # step-major: row t*B + b is caption b at step t; the widest
            # caption ends in the last column, so no step is all padding
            words = gather_cols(embed, tokens[:, :-1].T.reshape(-1))
            hidden = decoder_unroll(words, regions, self.attention_precompute(regions),
                                    self.lstm_weights(), self.attention_weights())
            targets = tokens[:, 1:].T.reshape(-1)
            mask = (targets != PAD).astype(self.dtype)
            ce = cross_entropy_rows(matmul(hidden, embed), targets, mask)
            count += int(mask.sum())
            total = ce if total is None else add(total, ce)
        return scale(reshape(total, (1, 1)), 1.0 / count), count

    # -- persistence --------------------------------------------------------

    def save_checkpoint(self, prefix, extra: dict | None = None) -> tuple[Path, Path]:
        """Write <prefix>.lxpv plus a <prefix>.json sidecar manifest."""
        prefix = Path(prefix)
        weights_path = prefix.with_suffix(".lxpv")
        manifest_path = prefix.with_suffix(".json")
        self.params.save(weights_path)
        manifest = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "dims": {
                "feature_dim": self.dims.feature_dim,
                "embed_dim": self.dims.embed_dim,
                "attn_dim": self.dims.attn_dim,
                "num_regions": self.dims.num_regions,
                "max_len": self.dims.max_len,
            },
            "languages": {lang: n for lang, n in sorted(self.vocab_sizes.items())},
            "dtype": np.dtype(self.dtype).name,
            "seed": self.params.rng_seed,
        }
        manifest.update(extra or {})
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")
        return weights_path, manifest_path

    @classmethod
    def load_checkpoint(cls, prefix) -> tuple["MultiLingualModel", dict]:
        """Model and sidecar manifest of a checkpoint. A sidecar of the wrong
        types, or one that does not describe every weight's name and shape
        as `build` would create them, is a FormatError."""
        prefix = Path(prefix)
        path = prefix.with_suffix(".json")
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSON syntax or UTF-8 decoding
            raise FormatError(f"{path}: not a JSON checkpoint manifest ({exc})") from exc
        version = manifest.get("checkpoint_version") if isinstance(manifest, dict) else None
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: checkpoint_version {version!r} is not supported "
                              f"(expected {CHECKPOINT_VERSION})")
        try:
            dims = ModelDims(**manifest["dims"])
            seed, languages, dtype = manifest["seed"], manifest["languages"], manifest["dtype"]
        except KeyError as exc:
            raise FormatError(f"{path}: checkpoint manifest has no key {exc}") from exc
        except TypeError as exc:
            raise FormatError(f"{path}: malformed checkpoint manifest ({exc})") from exc
        problems = [f"dims.{name} {value!r:.60} is not a positive integer"
                    for name, value in vars(dims).items() if not _is_count(value)]
        if not (isinstance(languages, dict) and languages
                and all(_is_count(n) for n in languages.values())):
            problems.append(f"languages {languages!r:.60} is not a map of vocabulary sizes")
        if not _is_int(seed):
            problems.append(f"seed {seed!r:.60} is not an integer")
        if dtype not in ("float32", "float64"):
            problems.append(f"dtype {dtype!r:.60} is not float32 or float64")
        if problems:
            raise FormatError(f"{path}: {'; '.join(problems)}")
        weights = prefix.with_suffix(".lxpv")
        params = ParamStore.load(weights, rng_seed=seed)
        expected = param_shapes(dims, languages)
        found = {name: p.data.shape for name, p in params.items()}
        if found != expected:
            name = min(set(found.items()) ^ set(expected.items()))[0]
            raise FormatError(
                f"{weights}: parameter {name!r} has shape {found.get(name, 'none')} in "
                f"the weights but {expected.get(name, 'none')} in the manifest {path}")
        dtype = np.dtype(dtype).type
        if dtype != np.float64:
            for name, p in params.items():
                try:
                    with np.errstate(over="raise"):
                        p.data = p.data.astype(dtype)
                except FloatingPointError as exc:
                    raise FormatError(
                        f"{weights}: parameter {name!r} does not fit the dtype "
                        f"{np.dtype(dtype).name} of the manifest {path} ({exc})") from exc
        return cls(dims, languages, params, dtype=dtype), manifest


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and value >= 1


def _pad_tokens(examples) -> np.ndarray:
    width = max(len(ex.tokens) for ex in examples)
    out = np.full((len(examples), width), PAD, dtype=np.intp)
    for i, ex in enumerate(examples):
        out[i, : len(ex.tokens)] = ex.tokens
    return out
