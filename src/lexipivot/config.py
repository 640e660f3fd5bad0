"""Run configuration: one JSON file with per-stage sections.

Unknown keys anywhere are rejected by name, and so is a value whose JSON
type does not fit its field, or a float field's value that is NaN or
beyond the float range; every field has a default, so an empty file is a
valid (full-scale) configuration. The fully resolved config is echoed
into the output directory of every command.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .corpus.synthetic import CorpusConfig
from .caption.training import TrainingConfig
from .errors import ConfigError

# every induce run ranks all five
INDUCTION_METHODS = ("linguistic", "visual", "fused", "cnn_mean", "cnn_avgmax")


@dataclass
class ModelSection:
    embed_dim: int = 64
    attn_dim: int = 32

    def validate(self):
        if self.embed_dim < 1 or self.attn_dim < 1:
            raise ConfigError("model dimensions must be positive")


@dataclass
class ExtractionSection:
    method: str = "probe"

    def validate(self):
        if self.method not in ("probe", "attention"):
            raise ConfigError(f"extraction.method must be probe or attention, "
                              f"got {self.method!r}")


@dataclass
class RunConfig:
    seed: int = 17
    # no stage reads it; kept only because the perfbench harness writes it
    # into its configs (ROADMAP item 7)
    threads: int = 1
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    extraction: ExtractionSection = field(default_factory=ExtractionSection)

    def validate(self):
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        self.corpus.validate()
        self.model.validate()
        self.training.validate()
        self.extraction.validate()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        """SHA-256 of the settings."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def echo(self, out_dir: Path) -> Path:
        path = Path(out_dir) / "resolved_config.json"
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path


def _fits(value, hint) -> bool:
    """Whether a JSON value can stand for a field annotated `hint`. Lists
    (or tuples) stand for tuples; their length is left to `validate`."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:  # Python's JSON parser reads NaN, Infinity and 1e400 as floats
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def _build(cls, data, prefix: str):
    """The dataclass `cls` from a JSON object, section by section."""
    if not isinstance(data, dict):
        where = f"config section {prefix[:-1]!r}" if prefix else "config root"
        raise ConfigError(f"{where} must be a JSON object")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in hints:
            raise ConfigError(f"unknown config key: {prefix}{key}")
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            kwargs[key] = _build(hint, value, f"{prefix}{key}.")
        elif _fits(value, hint):
            kwargs[key] = tuple(value) if isinstance(value, list) else value
        else:
            name = ("a finite float" if hint is float
                    else hint.__name__ if isinstance(hint, type) else hint)
            raise ConfigError(f"config key {prefix}{key} must be {name}, got {value!r:.60}")
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    config = _build(RunConfig, data, "")
    config.validate()
    return config


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSON syntax or UTF-8 decoding
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(data)
