"""JSON readers on wrongly typed and damaged values: the run config reader
gives a config or a ConfigError (exit 2), the checkpoint sidecar reader a
model whose sidecar describes its weights or a FormatError (exit 3)."""

import dataclasses
import json
import math
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lexipivot.caption import MultiLingualModel
from lexipivot.caption.model import param_shapes
from lexipivot.config import RunConfig, config_from_dict, load_config
from lexipivot.errors import ConfigError, FormatError

from conftest import build_corpus, build_model
from test_reader_fuzz import EDITS, mutate

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def field_hints(cls, prefix=()):
    """((section, ..., key), type hint) of every leaf field of a config dataclass."""
    for name, hint in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            yield from field_hints(hint, prefix + (name,))
        else:
            yield prefix + (name,), hint


CONFIG_PATHS = sorted(path for path, _ in field_hints(RunConfig))
FLOAT_PATHS = [path for path, hint in field_hints(RunConfig) if hint is float]


def nested(assignments):
    data = {}
    for path, value in assignments.items():
        node = data
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return data


@given(assignments=st.dictionaries(st.sampled_from(CONFIG_PATHS), JSON_VALUES,
                                   min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_config_values_read_or_raise_config_error(assignments):
    try:
        config = config_from_dict(nested(assignments))
    except ConfigError:
        return
    for path in FLOAT_PATHS:
        value = config
        for key in path:
            value = getattr(value, key)
        assert math.isfinite(value), path


@pytest.mark.parametrize("key,value", [
    ("threads", "a"), ("seed", "x"), ("seed", True), ("corpus.languages", 5),
    ("training.max_epochs", None), ("extraction.method", 3),
    ("training.learning_rate", "0.5"),
    ("model.embed_dim", "8"),
])
def test_wrongly_typed_value_names_its_key(key, value):
    with pytest.raises(ConfigError, match=f"config key {key} must be"):
        config_from_dict(nested({tuple(key.split(".")): value}))


@given(edits=EDITS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_config_file_reads_or_raises_config_error(edits, tmp_path):
    path = tmp_path / "config.json"
    text = json.dumps({"seed": 3, "corpus": {"languages": ["la", "lb"], "concepts": 6},
                       "training": {"learning_rate": 0.25}})
    path.write_bytes(mutate(text.encode("utf-8"), edits))
    try:
        load_config(path)
    except ConfigError:
        pass


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("checkpoint") / "checkpoint"
    model = build_model(build_corpus(), dtype=np.float32)
    model.save_checkpoint(prefix, extra={"best_epoch": 2})
    return prefix, json.loads(prefix.with_suffix(".json").read_text())


def sidecar_paths(manifest):
    for key, value in manifest.items():
        if isinstance(value, dict):
            yield from ((key, sub) for sub in value)
        yield (key,)


def edited(manifest, path, edit, value):
    manifest = json.loads(json.dumps(manifest))
    node = manifest
    for key in path[:-1]:
        node = node[key]
    if edit == "delete":
        del node[path[-1]]
    elif edit in ("+1", "-1") and isinstance(node[path[-1]], int):
        node[path[-1]] += int(edit)
    else:
        node[path[-1]] = value
    return manifest


@given(data=st.data(), edit=st.sampled_from(["replace", "+1", "-1", "delete"]),
       value=JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_edited_sidecar_loads_consistently_or_raises_format_error(checkpoint, data,
                                                                  edit, value):
    prefix, manifest = checkpoint
    path = data.draw(st.sampled_from(sorted(sidecar_paths(manifest))))
    prefix.with_suffix(".json").write_text(json.dumps(edited(manifest, path, edit, value)))
    try:
        model, _ = MultiLingualModel.load_checkpoint(prefix)
    except FormatError:
        return
    shapes = {name: p.data.shape for name, p in model.params.items()}
    assert shapes == param_shapes(model.dims, model.vocab_sizes)
    assert all(p.data.dtype == model.dtype and model.dtype in (np.float32, np.float64)
               for _, p in model.params.items())


# a mean-pool checkpoint and `"dtype": "int8"` go through the CLI in test_cli
@pytest.mark.parametrize("key,value,fragment", [
    ("dims.embed_dim", 9, "'attn.w1'"),
    ("dims.embed_dim", "8", "dims.embed_dim"),
    ("seed", "s", "seed"),
    ("languages.la", 3, "'embed.la'"),
])
def test_sidecar_mismatch_is_a_format_error(checkpoint, key, value, fragment):
    prefix, manifest = checkpoint
    edit = edited(manifest, tuple(key.split(".")), "replace", value)
    prefix.with_suffix(".json").write_text(json.dumps(edit))
    with pytest.raises(FormatError, match=fragment):
        MultiLingualModel.load_checkpoint(prefix)
