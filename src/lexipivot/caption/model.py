"""Multi-lingual attention caption model.

One affine+tanh region encoder and one LSTM decoder are shared by every
registered language; each language owns only its embedding matrix, which
is also the output projection (tied weights), so the hidden size equals
the embedding size. The context vector of each decode step is additive
attention over the encoded regions (Show, Attend and Tell).

Training runs a batch through one `caption_loss` tape node
(`sequence_loss`). The forward pieces that extraction decodes with
(`encode`, `attention_precompute`, `attend`, `step`) take and return
plain arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..corpus.vocab import PAD
from ..errors import ConfigError, FormatError, ShapeError
from ..numerics import (
    LstmWeights,
    ParamStore,
    Tensor,
    caption_loss,
    cross_entropy_rows,  # only perfbench looks it up here (ROADMAP item 7)
    lstm_step,
)
from ..numerics.attention import attention_forward
from ..seeding import substream

CHECKPOINT_VERSION = 4


@dataclass(frozen=True)
class ModelDims:
    feature_dim: int    # raw region feature size fed to the encoder
    embed_dim: int      # D = H: embedding, context, and hidden size
    attn_dim: int       # hidden layer of the attention scorer
    num_regions: int    # K


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
    }
    for lang, n in sorted(vocab_sizes.items()):
        shapes[f"embed.{lang}"] = (d, n)
    return shapes


class MultiLingualModel:
    def __init__(self, dims: ModelDims, vocab_sizes: dict[str, int], params: ParamStore):
        self.dims = dims
        self.vocab_sizes = dict(vocab_sizes)
        self.params = params
        self.dtype = params.data.dtype.type

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, dims: ModelDims, vocab_sizes: dict[str, int], seed: int,
              dtype=np.float64) -> "MultiLingualModel":
        if not vocab_sizes:
            raise ConfigError("a caption model needs at least one language")
        arrays = {}
        for name, shape in param_shapes(dims, vocab_sizes).items():
            if len(shape) == 1:  # biases start at zero
                data = np.zeros(shape)
            else:
                s = 1.0 / np.sqrt(shape[0])
                data = substream(seed, f"init:{name}").uniform(-s, s, size=shape)
            arrays[name] = data.astype(dtype)
        params = ParamStore(arrays)
        h = dims.embed_dim
        params["lstm.bias"].data[h:2 * h] = 1.0  # forget-gate bias
        return cls(dims, vocab_sizes, params)

    def embedding(self, language: str) -> Tensor:
        name = f"embed.{language}"
        if name not in self.params:
            raise KeyError(f"language {language!r} is not registered with this model")
        return self.params[name]

    def lstm_weights(self) -> LstmWeights:
        return LstmWeights(self.params["lstm.w_ih"], self.params["lstm.w_hh"],
                           self.params["lstm.bias"])

    # -- forward pieces -----------------------------------------------------

    def _features(self, features) -> np.ndarray:
        """Raw region features [B,K,D_in] in the model's dtype."""
        arr = np.asarray(features, dtype=self.dtype)
        if arr.ndim != 3 or arr.shape[1] != self.dims.num_regions \
                or arr.shape[2] != self.dims.feature_dim:
            raise ShapeError(
                f"expected region features [B,{self.dims.num_regions},"
                f"{self.dims.feature_dim}], got {arr.shape}")
        return arr

    def encode(self, features) -> np.ndarray:
        """Raw region features [B,K,D_in] -> regions [B,K,D]."""
        arr = self._features(features)
        b, k, d_in = arr.shape
        p = self.params
        out = np.tanh(arr.reshape(b * k, d_in) @ p["encoder.weight"].data
                      + p["encoder.bias"].data)
        return out.reshape(b, k, self.dims.embed_dim)

    def attention_precompute(self, regions: np.ndarray) -> np.ndarray:
        """Region half of the attention scores [B,K,A], shared across decode
        steps."""
        b, k, d = regions.shape
        w1_region = self.params["attn.w1"].data[self.dims.embed_dim:]
        part = regions.reshape(b * k, d) @ w1_region + self.params["attn.b1"].data
        return part.reshape(b, k, -1)

    def attend(self, h_prev: np.ndarray, regions: np.ndarray,
               region_part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Context vector and weights for one step: ([B,D], [B,K]), given the
        `attention_precompute` of the regions."""
        p = self.params
        h_part = h_prev @ p["attn.w1"].data[:self.dims.embed_dim]
        _, alpha, context = attention_forward(h_part, region_part, regions, p["attn.w2"].data)
        return context, alpha

    def initial_state(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        h = np.zeros((batch, self.dims.embed_dim), dtype=self.dtype)
        return h, np.zeros_like(h)

    def step(self, language: str, state: tuple[np.ndarray, np.ndarray], prev_tokens,
             regions: np.ndarray, region_part: np.ndarray):
        """One teacher-forced step for a batch, as extraction decodes, forward
        only. Returns (new (h, c), alpha [B,K], context [B,D])."""
        embed = self.embedding(language).data
        context, alpha = self.attend(state[0], regions, region_part)
        x = np.concatenate([embed[:, np.asarray(prev_tokens, dtype=np.intp)].T, context],
                           axis=1)
        return lstm_step(x, state, self.lstm_weights()), alpha, context

    # -- losses -------------------------------------------------------------

    def sequence_loss(self, language: str, tokens, features) -> tuple[Tensor, int]:
        """Teacher-forced NLL averaged over the non-pad target tokens of a
        batch of one language, and their count.

        tokens [B,L] holds the sentinel-wrapped ids, PAD after each
        caption's end, the widest caption filling its row; features [B,K,F]
        each caption's raw region features. The whole loss is one
        `caption_loss` node.
        """
        p = self.params
        return caption_loss(
            self._features(features), tokens, PAD,
            (p["encoder.weight"], p["encoder.bias"]), self.embedding(language),
            self.lstm_weights(), (p["attn.w1"], p["attn.b1"], p["attn.w2"]))

    # -- persistence --------------------------------------------------------

    def save_checkpoint(self, prefix, extra: dict | None = None) -> tuple[Path, Path]:
        """Write <prefix>.lxpv plus a <prefix>.json sidecar manifest."""
        prefix = Path(prefix)
        weights_path = prefix.with_suffix(".lxpv")
        manifest_path = prefix.with_suffix(".json")
        self.params.save(weights_path)
        # K is the one size no weight's shape holds
        manifest = {"checkpoint_version": CHECKPOINT_VERSION,
                    "num_regions": self.dims.num_regions, **(extra or {})}
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")
        return weights_path, manifest_path

    @classmethod
    def load_checkpoint(cls, prefix) -> tuple["MultiLingualModel", dict]:
        """Model and sidecar manifest of a checkpoint. The weights give every
        size but K, which the sidecar's `num_regions` holds. A sidecar of
        another version or without a positive `num_regions`, or weights that
        are not the parameters `build` creates for their own sizes, are a
        FormatError."""
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
        num_regions = manifest.get("num_regions")
        if type(num_regions) is not int or num_regions < 1:
            raise FormatError(f"{path}: checkpoint manifest has no positive integer "
                              f"num_regions (found {num_regions!r:.60})")
        weights = prefix.with_suffix(".lxpv")
        params = ParamStore.load(weights)
        found = {name: p.data.shape for name, p in params.items()}

        def matrix(name: str) -> tuple[int, int]:
            shape = found.get(name, ())
            if len(shape) != 2 or 0 in shape:
                raise FormatError(f"{weights}: parameter {name!r} has shape "
                                  f"{found.get(name, 'none')}, not that of a non-empty matrix")
            return shape

        feature_dim, embed_dim = matrix("encoder.weight")
        dims = ModelDims(feature_dim=feature_dim, embed_dim=embed_dim,
                         attn_dim=matrix("attn.w1")[1], num_regions=num_regions)
        vocab_sizes = {name.removeprefix("embed."): matrix(name)[1]
                       for name in found if name.startswith("embed.")}
        if not vocab_sizes:
            raise FormatError(f"{weights}: no embed.<language> parameter")
        expected = param_shapes(dims, vocab_sizes)
        if found != expected:
            name = min(set(found.items()) ^ set(expected.items()))[0]
            raise FormatError(
                f"{weights}: parameter {name!r} has shape {found.get(name, 'none')}, but "
                f"the other weights need {expected.get(name, 'none')}")
        for name, p in params.items():
            if not np.isfinite(p.data).all():
                raise FormatError(f"{weights}: parameter {name!r} holds a non-finite value")
        return cls(dims, vocab_sizes, params), manifest
