"""The names the benchmark's tracer wraps exist, and are restored on exit,
a traced attention extract records its LSTM steps, a traced training
epoch records one backward per batch, and what the benchmark reads from a
train or an induce run equals the stage manifest's counts.

`perfbench/spans.py` wraps layer functions by the name their callers look
them up by. A renamed or re-bound name would otherwise fail only the
benchmark's own self-test, which runs every workload. These tests install
and remove the wrappers, and run one induce stage on hand-built tables,
and one train and one extract stage at a tiny scale, without running a
workload.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from lexipivot import pipeline
from lexipivot.config import config_from_dict
from lexipivot.corpus import GroundTruthLexicon, write_lexicon
from lexipivot.localization import write_word_features

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """A perfbench module, registered (dataclasses look their module up)
    under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_restored():
    tracer = load_perfbench("spans").Tracer()
    with tracer.installed():
        wrapped = list(tracer._undo)   # (owner, attribute, original), in wrap order
        assert wrapped
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, attr
    assert not tracer._undo
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr


def test_traced_attention_extract_records_lstm_steps(tmp_path):
    """The benchmark's self-test asserts `numerics.lstm_step` calls on a
    traced extract; attention extraction is what makes them."""
    config = config_from_dict({
        "corpus": {"concepts": 3, "attributes": 1, "images_per_language": 6,
                   "feature_dim": 8, "min_count": 1},
        "model": {"embed_dim": 4, "attn_dim": 2},
        "extraction": {"method": "attention"}})
    corpus = tmp_path / "corpus"
    pipeline.stage_gen_corpus(config, corpus)
    pipeline.build_model_from_config(config, pipeline.load_corpus(config, corpus)) \
        .save_checkpoint(tmp_path / "checkpoint")
    tracer = load_perfbench("spans").Tracer()
    with tracer.installed():
        pipeline.stage_extract(config, tmp_path / "extract", tmp_path / "checkpoint", corpus)
    names = [name for name, *_ in tracer.spans]
    assert names.count("pipeline.stage.extract") == 1
    assert "numerics.lstm_step" in names


def test_traced_training_epoch_records_one_backward_per_batch(tmp_path):
    """The benchmark's train workload reads `numerics.backward` spans, one
    per training batch, and the `caption.train_tokens` count, which must
    equal the epoch's targets in the train manifest."""
    config = config_from_dict({
        "corpus": {"concepts": 3, "attributes": 1, "images_per_language": 6,
                   "feature_dim": 8, "min_count": 1},
        "model": {"embed_dim": 4, "attn_dim": 2},
        "training": {"max_epochs": 1, "batch_size": 3}})
    corpus = tmp_path / "corpus"
    pipeline.stage_gen_corpus(config, corpus)
    tracer = load_perfbench("spans").Tracer()
    with tracer.installed():
        pipeline.stage_train(config, tmp_path / "train", corpus)
    counts = json.loads((tmp_path / "train" / "manifest.json").read_text("utf-8"))["counts"]
    splits = [counts[lang] for lang in config.corpus.languages]
    batches = sum(-(-split["train_captions"] // config.training.batch_size)
                  for split in splits)
    names = [name for name, *_ in tracer.spans]
    assert batches > len(splits)
    assert names.count("numerics.backward") == batches
    (traced,) = tracer.counts.values()   # the stage is the one root span
    assert traced["caption.train_tokens"] == sum(split["train_targets"] for split in splits)


def write_tables(tables_dir, rng):
    """Three tables per language: "la" with four words, of which two have a
    visual vector and three a global image set, and "lb" with five words,
    of which three have each, so that all but the linguistic method fall
    back on some pairs."""
    for lang, n, visual, image_sets in (("la", 4, 2, 3), ("lb", 5, 3, 3)):
        words = [f"{lang}{i}" for i in range(n)]
        write_word_features(tables_dir / f"{lang}.linguistic.lxwf", lang,
                            {w: (1, rng.normal(size=(1, 6))) for w in words}, aggregated=True)
        write_word_features(tables_dir / f"{lang}.visual-probe.lxwf", lang,
                            {w: (2, rng.normal(size=(1, 4))) for w in words[:visual]},
                            aggregated=True)
        write_word_features(tables_dir / f"{lang}.global.lxwf", lang,
                            {w: (i + 1, rng.normal(size=(i + 1, 4)))
                             for i, w in enumerate(words[-image_sets:])}, aggregated=False)


def test_traced_induce_counts_the_pairs_of_the_manifest(tmp_path):
    """The pair and fallback counts that the traced run takes from each
    `<method>_rank` record, and the pair count that the induce workload
    takes from `result["methods"]`, equal the sums of the induce manifest's
    `pairs` and `fallback_pairs`."""
    tables_dir = tmp_path / "tables"
    tables_dir.mkdir()
    write_tables(tables_dir, np.random.default_rng(3))
    lexicon_path = tmp_path / "lexicon.tsv"
    write_lexicon(lexicon_path, GroundTruthLexicon(
        "la", "lb", {f"la{i}": {f"lb{i}"} for i in range(4)}))
    out = tmp_path / "induce"
    tracer = load_perfbench("spans").Tracer()
    with tracer.installed():
        result = pipeline.stage_induce(config_from_dict({}), out, tables_dir, lexicon_path)
    counts = json.loads((out / "manifest.json").read_text("utf-8"))["counts"]
    pairs = sum(c["pairs"] for c in counts.values())
    fallback_pairs = sum(c["fallback_pairs"] for c in counts.values())
    assert pairs and fallback_pairs and all(c["pairs"] for c in counts.values())
    (traced,) = tracer.counts.values()   # the stage is the one root span
    assert (traced["induction.pairs"], traced["induction.fallback_pairs"]) \
        == (pairs, fallback_pairs)
    workloads = load_perfbench("workloads")
    workload = workloads.InduceWorkload.__new__(workloads.InduceWorkload)
    assert workload.inspect(out, result).items == pairs
