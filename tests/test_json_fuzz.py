"""JSON readers on wrongly typed and damaged values: the run config reader
gives a config or a ConfigError (exit 2), the checkpoint sidecar reader a
model of the sizes its weights give or a FormatError (exit 3)."""

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


def edited(manifest, key, edit, value):
    manifest = dict(manifest)
    if edit == "delete":
        del manifest[key]
    elif edit in ("+1", "-1") and isinstance(manifest[key], int):
        manifest[key] += int(edit)
    else:
        manifest[key] = value
    return manifest


@given(data=st.data(), edit=st.sampled_from(["replace", "+1", "-1", "delete"]),
       value=JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_edited_sidecar_loads_consistently_or_raises_format_error(checkpoint, data,
                                                                  edit, value):
    prefix, manifest = checkpoint
    key = data.draw(st.sampled_from(sorted(manifest)))
    prefix.with_suffix(".json").write_text(json.dumps(edited(manifest, key, edit, value)))
    try:
        model, loaded = MultiLingualModel.load_checkpoint(prefix)
    except FormatError:
        return
    shapes = {name: p.data.shape for name, p in model.params.items()}
    assert shapes == param_shapes(model.dims, model.vocab_sizes)
    assert model.dims.num_regions == loaded["num_regions"]
    assert model.dtype is np.float32


# the weights' own mismatches go through the CLI in test_cli
@pytest.mark.parametrize("key,value,fragment", [
    ("num_regions", 0, "no positive integer num_regions"),
    ("num_regions", "4", "no positive integer num_regions"),
    ("num_regions", True, "no positive integer num_regions"),
    ("checkpoint_version", 3, "checkpoint_version 3 is not supported"),
])
def test_sidecar_mismatch_is_a_format_error(checkpoint, key, value, fragment):
    prefix, manifest = checkpoint
    edit = edited(manifest, key, "replace", value)
    prefix.with_suffix(".json").write_text(json.dumps(edit))
    with pytest.raises(FormatError, match=fragment):
        MultiLingualModel.load_checkpoint(prefix)
