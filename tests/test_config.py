import json

import pytest

from lexipivot.config import RunConfig, config_from_dict, load_config
from lexipivot.errors import ConfigError


def test_defaults_are_valid():
    config = RunConfig()
    config.validate()
    assert config.corpus.concepts == 50
    assert config.training.learning_rate > 0


def test_empty_file_is_default_config(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{}")
    config = load_config(path)
    assert config.seed == RunConfig().seed


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="learnig_rate"):
        config_from_dict({"learnig_rate": 0.1})


def test_unknown_section_key_names_full_path():
    with pytest.raises(ConfigError, match="training.learnig_rate"):
        config_from_dict({"training": {"learnig_rate": 0.1}})


def test_section_overrides_apply():
    config = config_from_dict({
        "seed": 5,
        "corpus": {"concepts": 8, "images_per_language": 40},
        "model": {"embed_dim": 16},
        "extraction": {"method": "attention"},
    })
    assert config.seed == 5
    assert config.corpus.concepts == 8
    assert config.model.embed_dim == 16
    assert config.extraction.method == "attention"


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"extraction": {"method": "pixels"}})
    with pytest.raises(ConfigError):
        config_from_dict({"model": {"embed_dim": 0}})
    with pytest.raises(ConfigError):
        config_from_dict({"threads": 0})


@pytest.mark.parametrize("key,value,fragment", [
    ("learning_rate", 0.0, "training.learning_rate must be > 0"),
    ("learning_rate", -1.0, "training.learning_rate must be > 0"),
    ("patience", 0, "training.patience must be >= 1"),
    ("batch_size", 0, "training.batch_size"),
    ("max_epochs", 0, "training.max_epochs"),
    ("val_fraction", 0.0, "training.val_fraction must be in (0, 1)"),
    ("val_fraction", 1.0, "training.val_fraction must be in (0, 1)"),
    ("val_fraction", 1.5, "training.val_fraction must be in (0, 1)"),
])
def test_training_values_out_of_range_rejected(key, value, fragment):
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"training": {key: value}})
    assert fragment in str(exc.value)


def test_config_hash_stable_and_sensitive():
    a = config_from_dict({"seed": 1})
    b = config_from_dict({"seed": 1})
    c = config_from_dict({"seed": 2})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    # the same settings written to another directory
    elsewhere = config_from_dict({"seed": 1, "out_dir": "runs/elsewhere"})
    assert elsewhere.out_dir != a.out_dir
    assert elsewhere.config_hash() == a.config_hash()


def test_echo_round_trips(tmp_path):
    config = config_from_dict({"corpus": {"concepts": 6}})
    path = config.echo(tmp_path)
    data = json.loads(path.read_text())
    reloaded = config_from_dict(data)
    assert reloaded.config_hash() == config.config_hash()


def test_invalid_json_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="broken.json"):
        load_config(path)
