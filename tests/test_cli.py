import csv
import json
import struct
import subprocess
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from lexipivot import pipeline
from lexipivot.arrayfile import write_arrays
from lexipivot.caption import MultiLingualModel, split_by_scene
from lexipivot.cli import main
from lexipivot.config import INDUCTION_METHODS, load_config
from lexipivot.corpus import read_features, read_lexicon, write_features
from lexipivot.localization import read_word_features
from lexipivot.numerics import ParamStore
from lexipivot.pipeline import load_corpus
from lexipivot.seeding import derive_seed


def write_config(tmp_path, **overrides):
    config = {
        "seed": 11,
        "corpus": {"concepts": 5, "attributes": 2, "grid_side": 2,
                   "images_per_language": 30, "captions_per_image": 2,
                   "feature_dim": 8, "min_count": 1},
        "model": {"embed_dim": 12, "attn_dim": 6},
        "training": {"max_epochs": 2, "batch_size": 8, "learning_rate": 0.005},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def run(args):
    return main([str(a) for a in args])


def assert_one_error_line(err, *fragments):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lexipivot-error:"), err
    for fragment in fragments:
        assert fragment in lines[0]


@pytest.fixture()
def corpus_dir(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "corpus"
    assert run(["gen-corpus", "--config", cfg, "--out", out]) == 0
    return cfg, out


class TestGenCorpus:
    def test_writes_loadable_files(self, corpus_dir):
        _, out = corpus_dir
        for lang in ("la", "lb"):
            for suffix in ("features.lxpf", "captions.tsv", "vocab.tsv"):
                assert (out / f"{lang}.{suffix}").exists()
        lexicon = read_lexicon(out / "lexicon.tsv", "la", "lb")
        assert len(lexicon.entries) == 5 + 2 + 2
        assert (out / "manifest.json").exists()
        assert (out / "resolved_config.json").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert run(["gen-corpus", "--config", cfg, "--seed", 7, "--out", out1]) == 0
        assert run(["gen-corpus", "--config", cfg, "--seed", 7, "--out", out2]) == 0
        for name in ("la.features.lxpf", "la.captions.tsv", "la.vocab.tsv",
                     "lb.features.lxpf", "lexicon.tsv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"training": {"learnig_rate": 0.1}}))
        code = run(["gen-corpus", "--config", path, "--out", tmp_path / "x"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("lexipivot-error:")
        assert "learnig_rate" in err

    def test_wrongly_typed_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"extraction": {"method": 3}}))
        code = run(["gen-corpus", "--config", path, "--out", tmp_path / "x"])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, "extraction.method")

    @pytest.mark.parametrize("section,key,value,message", [
        ("model", "attention", False, "unknown config key: model.attention"),
        ("model", "freeze_encoder", True, "unknown config key: model.freeze_encoder"),
        ("corpus", "disjoint_images", False, "unknown config key: corpus.disjoint_images"),
        ("corpus", "images_per_language", {"la": 30, "lb": 20},
         "config key corpus.images_per_language must be int, got {'la': 30, 'lb': 20}"),
        ("corpus", "attribute_offset", 0.5, "unknown config key: corpus.attribute_offset"),
        ("corpus", "cooccur_group_size", 4, "unknown config key: corpus.cooccur_group_size"),
        ("corpus", "attr_first_probabilities", [0.8, 0.2],
         "unknown config key: corpus.attr_first_probabilities"),
        ("training", "beta1", 0.9, "unknown config key: training.beta1"),
        ("training", "beta2", 0.999, "unknown config key: training.beta2"),
        ("training", "epsilon", 1e-8, "unknown config key: training.epsilon"),
        ("training", "clip_norm", 5.0, "unknown config key: training.clip_norm"),
        ("model", "dtype", "float32", "unknown config key: model.dtype"),
        ("extraction", "cap", 3, "unknown config key: extraction.cap"),
        ("corpus", "max_caption_len", 16, "unknown config key: corpus.max_caption_len"),
        # the induction section is gone, so its keys fail on the section's name
        ("induction", "methods", ["fused"], "unknown config key: induction"),
        ("induction", "fusion_lambda", 0.5, "unknown config key: induction"),
        ("induction", "full_rankings", True, "unknown config key: induction"),
        ("induction", "top_k", 20, "unknown config key: induction"),
        ("induction", "baseline_set_cap", 100, "unknown config key: induction"),
        ("induction", "source_language", "lb", "unknown config key: induction"),
        ("induction", "target_language", "la", "unknown config key: induction"),
        ("induction", "ks", [1, 5, 10, 20], "unknown config key: induction"),
    ], ids=["mean-pool decoder", "frozen encoder", "shared image pool",
            "per-language image counts", "attribute offset", "co-occurrence group size",
            "attribute-first probabilities", "adam beta1", "adam beta2", "adam epsilon",
            "clip norm", "model dtype", "extraction cap", "caption length cap",
            "induction methods", "fusion lambda", "full rankings", "ranking width",
            "baseline set cap", "source language", "target language",
            "precision cut-offs"])
    def test_removed_setting_exits_2(self, tmp_path, capsys, section, key, value, message):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({section: {key: value}}))
        out = tmp_path / "x"
        code = run(["pipeline", "--config", path, "--out", out])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"lexipivot-error: {message}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command,args", [
        ("gen-corpus", []),
        ("train", ["--corpus", "c"]),
        ("extract", ["--corpus", "c", "--checkpoint", "k"]),
        ("induce", ["--tables", "t", "--lexicon", "l"]),
        ("pipeline", []),
    ])
    def test_equal_languages_exit_2_before_any_stage(self, tmp_path, capsys, command, args):
        """Two equal languages, or a language name that is no file-name stem."""
        for languages, fragment in [
                (["la", "la"], "languages must differ"),
                (["", "lb"], "language name ''"),
                ([".", "lb"], "language name '.'"),
                (["l\ta", "lb"], "language name 'l\\ta'"),
                (["x/y", "lb"], "language name 'x/y'")]:
            cfg = write_config(tmp_path, corpus={"languages": languages})
            out = tmp_path / "x"
            code = run([command, "--config", cfg, "--out", out, *args])
            assert code == 2, languages
            assert_one_error_line(capsys.readouterr().err, fragment)
            assert not out.exists()

    @pytest.mark.parametrize("section,key,value", [
        ("training", "val_fraction", float("nan")),
        ("training", "learning_rate", float("nan")),
        ("corpus", "noise_sigma", float("inf")),
        ("training", "learning_rate", 10**400),
    ])
    def test_non_finite_float_exits_2_before_any_output(self, tmp_path, capsys, section,
                                                        key, value):
        config = {"corpus": {"concepts": 5, "images_per_language": 40},
                  "training": {"max_epochs": 2}}
        config[section][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))   # NaN and Infinity, as Python writes them
        out = tmp_path / "pipe"
        code = run(["pipeline", "--config", path, "--out", out])
        assert code == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, f"config key {section}.{key} must be a finite float")
        assert captured.out == ""
        assert not out.exists()

    def test_grid_overflowing_float32_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, corpus={"noise_sigma": 1e300})
        out = tmp_path / "corpus"
        assert run(["gen-corpus", "--config", cfg, "--out", out]) == 2
        assert_one_error_line(capsys.readouterr().err, "corpus.noise_sigma 1e+300")
        assert not (out / "la.features.lxpf").exists()
        # the config echo and the manifest are written with the outputs
        assert not (out / "resolved_config.json").exists()
        assert not (out / "manifest.json").exists()

    def test_failed_stage_creates_no_directory(self, tmp_path, capsys):
        """A stage creates its directory when it first writes to it, so one
        that fails before then leaves no directory, and a directory that
        already exists as it found it."""
        cfg = write_config(tmp_path, corpus={"noise_sigma": 1e300})
        out = tmp_path / "out"
        assert run(["gen-corpus", "--config", cfg, "--out", out / "corpus"]) == 2
        assert_one_error_line(capsys.readouterr().err, "corpus.noise_sigma 1e+300")
        assert not out.exists()
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert run(["gen-corpus", "--config", cfg, "--out", out]) == 2
        assert_one_error_line(capsys.readouterr().err, "corpus.noise_sigma 1e+300")
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "kept"

    def test_io_failure_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = run(["gen-corpus", "--config", cfg, "--out", blocker / "sub"])
        assert code == 3
        assert capsys.readouterr().err.startswith("lexipivot-error:")

    @pytest.mark.parametrize("error,detail", [
        (MemoryError("Unable to allocate 2.98 TiB"), " (Unable to allocate 2.98 TiB)"),
        (MemoryError(), ""),
    ], ids=["numpy allocation", "bare"])
    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch, error, detail):
        """Sizes too large for the memory at hand (as `grid_side` 20000 asks
        for) end with one error line, and leave no config echo."""
        def out_of_memory(*args):
            raise error
        monkeypatch.setattr(pipeline, "generate_corpus", out_of_memory)
        out = tmp_path / "corpus"
        assert run(["gen-corpus", "--config", write_config(tmp_path), "--out", out]) == 2
        assert capsys.readouterr().err == ("lexipivot-error: the run's sizes need more memory "
                                           f"than is available{detail}\n")
        assert not (out / "resolved_config.json").exists()


class TestTrain:
    def test_multi_writes_both_embeddings(self, corpus_dir, tmp_path):
        cfg, corpus = corpus_dir
        out = tmp_path / "train"
        assert run(["train", "--config", cfg, "--corpus", corpus, "--out", out]) == 0
        store = ParamStore.load(out / "checkpoint.lxpv")
        assert "embed.la" in store and "embed.lb" in store
        log_text = (out / "log.csv").read_text().splitlines()
        assert log_text[0] == ("epoch,language,train_loss,val_loss,grad_norm_mean,"
                               "grad_norm_max,clipped_fraction")
        languages = {line.split(",")[1] for line in log_text[1:]}
        assert languages == {"la", "lb", "all"}

    def test_best_val_sequence_non_increasing(self, corpus_dir, tmp_path):
        cfg, corpus = corpus_dir
        out = tmp_path / "train"
        assert run(["train", "--config", cfg, "--corpus", corpus, "--out", out]) == 0
        vals = [float(line.split(",")[3])
                for line in (out / "log.csv").read_text().splitlines()[1:]
                if line.split(",")[1] == "all"]
        best = np.minimum.accumulate(vals)
        assert all(b <= a + 1e-12 for a, b in zip(best, best[1:]))

    def test_removed_mono_flag_is_a_usage_error(self, tmp_path, capsys):
        code = run(["train", "--corpus", tmp_path, "--out", tmp_path / "x", "--mono", "lb"])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, "unrecognized arguments: --mono lb")
        assert not (tmp_path / "x").exists()

    def test_train_and_extract_run_without_the_lexicon(self, corpus_dir, tmp_path):
        cfg, corpus = corpus_dir
        (corpus / "lexicon.tsv").unlink()
        train_out = tmp_path / "train"
        assert run(["train", "--config", cfg, "--corpus", corpus, "--out", train_out]) == 0
        assert run(["extract", "--config", cfg, "--checkpoint", train_out / "checkpoint",
                    "--corpus", corpus, "--out", tmp_path / "feats"]) == 0

    def test_diverged_training_exits_4_without_checkpoint(self, tmp_path):
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps({"corpus": {"concepts": 5, "images_per_language": 40},
                                    "training": {"max_epochs": 2, "learning_rate": 1e30}}))
        out = tmp_path / "pipe"
        proc = subprocess.run(
            [sys.executable, "-m", "lexipivot", "pipeline", "--config", str(path),
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 4, proc.stderr
        assert_one_error_line(proc.stderr, "numeric failure at epoch 1",
                              "decoder input product is not finite")
        assert not (out / "train" / "checkpoint.lxpv").exists()

    def test_caption_of_other_language_exits_3(self, corpus_dir, tmp_path, capsys):
        cfg, corpus = corpus_dir
        path = corpus / "la.captions.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].replace("\tla\t", "\tlb\t")
        path.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "x"
        code = run(["train", "--config", cfg, "--corpus", corpus, "--out", out])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, "la.captions.tsv:3", "'lb'", "'la'")
        assert not (out / "checkpoint.lxpv").exists()

    def test_caption_with_unknown_image_id_exits_3(self, corpus_dir, tmp_path, capsys):
        cfg, corpus = corpus_dir
        with open(corpus / "la.captions.tsv", "a", encoding="utf-8") as fh:
            fh.write("999999\tla\tsome words\n")
        code = run(["train", "--config", cfg, "--corpus", corpus,
                    "--out", tmp_path / "x"])
        err = capsys.readouterr().err
        assert code == 3
        assert_one_error_line(err, "la.captions.tsv", "999999")

    def test_image_id_in_both_languages_exits_3(self, corpus_dir, tmp_path, capsys):
        """lb renumbered onto la's image ids: la's captions must not load lb's grids."""
        cfg, corpus = corpus_dir
        la_ids = sorted(read_features(corpus / "la.features.lxpf")[0])
        lb_ids, lb_regions = read_features(corpus / "lb.features.lxpf")
        renumber = dict(zip(sorted(lb_ids), la_ids))
        write_features(corpus / "lb.features.lxpf", [renumber[i] for i in lb_ids], lb_regions)
        path = corpus / "lb.captions.tsv"
        lines = [line.split("\t", 1) for line in path.read_text(encoding="utf-8").splitlines()]
        path.write_text("".join(f"{renumber[int(i)]}\t{rest}\n" for i, rest in lines),
                        encoding="utf-8")
        out = tmp_path / "x"
        code = run(["train", "--config", cfg, "--corpus", corpus, "--out", out])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, f"image id {la_ids[0]} ",
                              "la.features.lxpf", "lb.features.lxpf")
        assert not (out / "checkpoint.lxpv").exists()

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_grid_value_exits_3(self, corpus_dir, tmp_path, capsys, value):
        cfg, corpus = corpus_dir
        path = corpus / "lb.features.lxpf"
        ids, regions = read_features(path)
        regions[3, 1, 5] = value
        write_features(path, ids, regions)
        out = tmp_path / "x"
        code = run(["train", "--config", cfg, "--corpus", corpus, "--out", out])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, "lb.features.lxpf",
                              f"image id {ids[3]} has a non-finite")
        assert not out.exists()

    @pytest.mark.parametrize("cut,shape", [
        ((slice(None), slice(0, 3)), "3 x 8"),
        ((slice(None), slice(None), slice(0, 7)), "4 x 7"),
    ], ids=["regions", "features"])
    def test_grids_of_two_shapes_exit_3_naming_both_files(self, corpus_dir, tmp_path, capsys,
                                                          cut, shape):
        cfg, corpus = corpus_dir
        path = corpus / "lb.features.lxpf"
        ids, regions = read_features(path)
        write_features(path, ids, np.ascontiguousarray(regions[cut]))
        out = tmp_path / "x"
        code = run(["train", "--config", cfg, "--corpus", corpus, "--out", out])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err,
                              f"{corpus / 'la.features.lxpf'} holds grids of 4 regions x 8 "
                              f"features, but {path} holds {shape}")
        assert not (out / "checkpoint.lxpv").exists()

    def test_empty_captions_file_exits_3(self, corpus_dir, tmp_path, capsys):
        cfg, corpus = corpus_dir
        (corpus / "la.captions.tsv").write_text("", encoding="utf-8")
        out = tmp_path / "x"
        code = run(["train", "--config", cfg, "--corpus", corpus, "--out", out])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, "la.captions.tsv", "no caption records")
        assert not (out / "checkpoint.lxpv").exists()

    def test_negative_vocabulary_count_exits_3(self, corpus_dir, tmp_path, capsys):
        cfg, corpus = corpus_dir
        path = corpus / "la.vocab.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        index, word, _ = lines[3].split("\t")
        lines[3] = f"{index}\t{word}\t-7"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run(["train", "--config", cfg, "--corpus", corpus, "--out", tmp_path / "train"])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, f"{path}:4", "-7")

    def test_manifest_counts(self, corpus_dir, tmp_path):
        """Per language: the captions of each split and the training targets
        of one epoch, as the corpus files split by image give them."""
        cfg, corpus = corpus_dir
        out = tmp_path / "train"
        assert run(["train", "--config", cfg, "--corpus", corpus, "--out", out]) == 0
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        config = load_config(cfg)
        loaded = load_corpus(config, corpus)
        assert sorted(counts) == ["la", "lb"]
        for lang, c in counts.items():
            train_split, val_split = split_by_scene(
                loaded.examples[lang], config.training.val_fraction,
                derive_seed(config.seed, "split"), lang)
            lines = (corpus / f"{lang}.captions.tsv").read_text(encoding="utf-8").splitlines()
            assert c["train_captions"] + c["val_captions"] == len(lines)
            assert c == {"train_captions": len(train_split), "val_captions": len(val_split),
                         "train_targets": sum(len(ex.tokens) - 1 for ex in train_split)}


@pytest.fixture()
def trained(corpus_dir, tmp_path):
    cfg, corpus = corpus_dir
    out = tmp_path / "train"
    assert run(["train", "--config", cfg, "--corpus", corpus, "--out", out]) == 0
    return cfg, corpus, out / "checkpoint"


class TestExtract:
    def test_methods_write_distinct_tables_same_inventory(self, trained, tmp_path):
        _, corpus, checkpoint = trained
        out_p = tmp_path / "probe"
        out_a = tmp_path / "attn"
        for method, out in (("probe", out_p), ("attention", out_a)):
            (tmp_path / f"{method}-config").mkdir()
            cfg = write_config(tmp_path / f"{method}-config", extraction={"method": method})
            assert run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                        "--corpus", corpus, "--out", out]) == 0
        from lexipivot.localization import read_word_features
        _, _, probe = read_word_features(out_p / "la.visual-probe.lxwf")
        _, _, attn = read_word_features(out_a / "la.visual-attention.lxwf")
        assert probe.keys() == attn.keys()
        assert any(not np.array_equal(probe[w][1], attn[w][1]) for w in probe)

    def test_word_counts_match_corpus(self, trained):
        cfg, corpus, checkpoint = trained
        out = corpus.parent / "feats"
        assert run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", out]) == 0
        from collections import Counter
        from lexipivot.corpus import read_captions
        from lexipivot.localization import read_word_features
        _, _, entries = read_word_features(out / "la.visual-probe.lxwf")
        counts = Counter(w for cap in read_captions(corpus / "la.captions.tsv", "la")
                         for w in cap.words)
        for word, (count, _) in entries.items():
            assert count == counts[word]

    def test_manifest_counts(self, trained, tmp_path):
        cfg, corpus, checkpoint = trained
        out = tmp_path / "feats"
        assert run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", out]) == 0
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        from collections import Counter
        from lexipivot import localization
        from lexipivot.corpus import read_captions, read_vocabulary
        assert sorted(counts) == ["la", "lb"]
        for lang in ("la", "lb"):
            vocab = read_vocabulary(corpus / f"{lang}.vocab.tsv", lang)
            captions = read_captions(corpus / f"{lang}.captions.tsv", lang)
            words = Counter(w for cap in captions for w in cap.words)
            known = {w: n for w, n in words.items() if w in vocab.word_to_index}
            per_chunk = localization.ROW_CAP // 4        # probe: 4 decode rows per image
            images = {cap.image_id for cap in captions}
            # one decode state per distinct (image, word prefix), unknown words as UNK
            states = {(cap.image_id, tuple(vocab.encode(cap.words[:t])))
                      for cap in captions for t in range(len(cap.words))}
            assert counts[lang] == {
                "occurrences": sum(words.values()),
                "decoded": len(states),
                "dropped_unk": sum(words.values()) - sum(known.values()),
                "words": len(known),
                "batches": -(-len(images) // per_chunk),
            }
            assert counts[lang]["decoded"] < counts[lang]["occurrences"]
            _, _, table = read_word_features(out / f"{lang}.visual-probe.lxwf")
            assert len(table) == counts[lang]["words"]

    def test_each_image_is_encoded_once(self, trained, tmp_path, monkeypatch):
        from collections import Counter
        from lexipivot.caption.model import MultiLingualModel
        from lexipivot.corpus import read_captions
        cfg, corpus, checkpoint = trained
        encoded = Counter()
        encode = MultiLingualModel.encode

        def counting_encode(self, features):
            encoded.update(row.tobytes() for row in np.asarray(features, dtype=np.float32))
            return encode(self, features)

        monkeypatch.setattr(MultiLingualModel, "encode", counting_encode)
        assert run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", tmp_path / "feats"]) == 0
        images = Counter()
        for lang in ("la", "lb"):
            features = dict(zip(*read_features(corpus / f"{lang}.features.lxpf")))
            ids = {cap.image_id for cap in read_captions(corpus / f"{lang}.captions.tsv", lang)}
            images.update(features[i].tobytes() for i in ids)
        assert encoded == images

    def test_empty_captions_file_exits_3(self, trained, tmp_path, capsys):
        cfg, corpus, checkpoint = trained
        (corpus / "la.captions.tsv").write_text("", encoding="utf-8")
        out = tmp_path / "feats"
        code = run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", out])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, "la.captions.tsv", "no caption records")
        assert not list(out.glob("*.lxwf"))

    def test_re_extraction_byte_identical(self, trained, tmp_path):
        cfg, corpus, checkpoint = trained
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        for out in (out1, out2):
            assert run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                        "--corpus", corpus, "--out", out]) == 0
        for name in ("la.visual-probe.lxwf", "la.linguistic.lxwf", "la.global.lxwf"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def edit_sidecar(edit):
    """A checkpoint edit that rewrites the sidecar's text with `edit`."""
    def apply(checkpoint):
        sidecar = checkpoint.with_suffix(".json")
        sidecar.write_text(edit(sidecar.read_text()))
    return apply


def edit_weights(edit):
    """A checkpoint edit that changes the weights in place with `edit`."""
    def apply(checkpoint):
        weights = checkpoint.with_suffix(".lxpv")
        params = ParamStore.load(weights)
        edit(params)
        params.save(weights)
    return apply


def mean_pool_checkpoint(checkpoint):
    """The checkpoint of the mean-pool decoder, whose context was the region
    mean: `"attention": false` in the sidecar and no `attn.*` weights."""
    edit_sidecar(lambda text: json.dumps({**json.loads(text), "attention": False}))(checkpoint)
    weights = checkpoint.with_suffix(".lxpv")
    kept = ParamStore({name: p.data for name, p in ParamStore.load(weights).items()
                       if not name.startswith("attn.")})
    kept.save(weights)


def float64_weights(checkpoint, extra=None):
    """Rewrite the weights in float64, as checkpoint versions 2 and 3 wrote
    them, with the parameters `extra` added."""
    weights = checkpoint.with_suffix(".lxpv")
    arrays = {name: p.data for name, p in ParamStore.load(weights).items()}
    write_arrays(weights, b"LXPV", "<f8", {}, {**arrays, **(extra or {})})


def version_2_checkpoint(checkpoint):
    """The checkpoint as version 2 wrote it: its scorer also had the score
    bias `attn.b2`, which the softmax over regions cannot see."""
    add_removed_keys(checkpoint)
    edit_sidecar(lambda text: json.dumps({**json.loads(text), "checkpoint_version": 2}))(
        checkpoint)
    float64_weights(checkpoint, {"attn.b2": np.zeros(1)})


def version_3_checkpoint(checkpoint):
    """The checkpoint as version 3 wrote it: float64 weights, and a sidecar
    that restated their sizes."""
    add_removed_keys(checkpoint)
    edit_sidecar(lambda text: json.dumps({**json.loads(text), "checkpoint_version": 3}))(
        checkpoint)
    float64_weights(checkpoint)


def widen_lstm_w_hh(checkpoint):
    """Weights whose recurrent matrix has one column more than the other
    weights' sizes give it."""
    weights = checkpoint.with_suffix(".lxpv")
    arrays = {name: p.data for name, p in ParamStore.load(weights).items()}
    arrays["lstm.w_hh"] = np.pad(arrays["lstm.w_hh"], ((0, 0), (0, 1)))
    ParamStore(arrays).save(weights)


def drop_embeddings(checkpoint):
    """Weights without an `embed.<lang>` parameter, so of no language."""
    weights = checkpoint.with_suffix(".lxpv")
    ParamStore({name: p.data for name, p in ParamStore.load(weights).items()
                if not name.startswith("embed.")}).save(weights)


def add_weight(checkpoint):
    """Weights with a parameter the model does not have: version 2's score
    bias `attn.b2`, in float32 behind a version-4 sidecar."""
    weights = checkpoint.with_suffix(".lxpv")
    arrays = {name: p.data for name, p in ParamStore.load(weights).items()}
    ParamStore({**arrays, "attn.b2": np.zeros(1, dtype=np.float32)}).save(weights)


def empty_attn_w1(checkpoint):
    """Weights whose attention projection has no column, so attention size 0."""
    weights = checkpoint.with_suffix(".lxpv")
    arrays = {name: p.data for name, p in ParamStore.load(weights).items()}
    arrays["attn.w1"] = arrays["attn.w1"][:, :0]
    ParamStore(arrays).save(weights)


def one_nan_weight(params):
    params["attn.w1"].data[1, 2] = np.nan


def add_removed_keys(checkpoint):
    """Add to the sidecar what earlier versions wrote there: the caption
    model's attention and encoder settings, the sizes and dtype the weights
    now give, and the init seed, which nothing read."""
    model, manifest = MultiLingualModel.load_checkpoint(checkpoint)
    removed = {"attention": True, "freeze_encoder": False, "dims": asdict(model.dims),
               "languages": model.vocab_sizes, "dtype": "float32", "seed": 11}
    checkpoint.with_suffix(".json").write_text(json.dumps({**manifest, **removed}))


class TestExtractBadCheckpoint:
    @pytest.mark.parametrize("edit,file,fragment", [
        (edit_sidecar(lambda text: "{bad"), "checkpoint.json", "not a JSON"),
        (edit_sidecar(lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                               if k != "num_regions"})),
         "checkpoint.json", "has no positive integer num_regions (found None)"),
        (version_2_checkpoint, "checkpoint.json",
         "checkpoint_version 2 is not supported (expected 4)"),
        (version_3_checkpoint, "checkpoint.json",
         "checkpoint_version 3 is not supported (expected 4)"),
        (float64_weights, "checkpoint.lxpv", "has dtype '<f8', expected '<f4'"),
        (mean_pool_checkpoint, "checkpoint.lxpv", "parameter 'attn.w1' has shape none"),
        (widen_lstm_w_hh, "checkpoint.lxpv", "parameter 'lstm.w_hh' has shape (12, 49), "
                                             "but the other weights need (12, 48)"),
        (drop_embeddings, "checkpoint.lxpv", "no embed.<language> parameter"),
        (add_weight, "checkpoint.lxpv", "parameter 'attn.b2' has shape (1,), "
                                        "but the other weights need none"),
        (empty_attn_w1, "checkpoint.lxpv", "parameter 'attn.w1' has shape (24, 0), "
                                           "not that of a non-empty matrix"),
    ], ids=["undecodable", "no num_regions", "version", "version 3", "float64 weights",
            "attention off", "lstm.w_hh of another width", "no language", "extra parameter",
            "attention size 0"])
    def test_exits_3(self, trained, tmp_path, capsys, edit, file, fragment):
        cfg, corpus, checkpoint = trained
        edit(checkpoint)
        code = run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", tmp_path / "x"])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, file, fragment)

    def test_non_finite_weight_exits_3(self, trained, tmp_path, capsys):
        cfg, corpus, checkpoint = trained
        edit_weights(one_nan_weight)(checkpoint)
        code = run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", tmp_path / "x"])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, "checkpoint.lxpv",
                              "parameter 'attn.w1' holds a non-finite value")

    def test_sidecar_with_removed_model_keys_extracts_identically(self, trained, tmp_path):
        cfg, corpus, checkpoint = trained
        before, after = tmp_path / "as written", tmp_path / "with removed keys"
        assert run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", before]) == 0
        add_removed_keys(checkpoint)
        assert run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", after]) == 0
        names = sorted(path.name for path in before.glob("*.lxwf"))
        assert names and names == sorted(path.name for path in after.glob("*.lxwf"))
        for name in names:
            assert (before / name).read_bytes() == (after / name).read_bytes(), name


# Two ways to make a checkpoint whose decode diverges. (lstm.w_hh scaled by
# 1e30 is not one: it only saturates the gates, and the features stay finite.)
def scale_embeddings(params):
    for lang in ("la", "lb"):
        params[f"embed.{lang}"].data *= 1e30  # the gold word's probability underflows


def overflow_finite_weights(params):
    """Weights inside the float32 range whose products are not. Every region
    encodes to tanh(30) = 1 and every embedding entry is 1, so the word and
    the region half of the LSTM input product of unit 0 are +inf and -inf,
    and their sum is NaN; every attention score is 6 * 3e38 = +inf."""
    for lang in ("la", "lb"):
        params[f"embed.{lang}"].data[...] = 1.0
    params["encoder.weight"].data[...] = 0.0
    params["encoder.bias"].data[...] = 30.0
    e = params["embed.la"].data.shape[0]
    params["lstm.w_ih"].data[:e, 0] = 3e38
    params["lstm.w_ih"].data[e:, 0] = -3e38
    params["attn.b1"].data[...] = 3e38
    params["attn.w2"].data[...] = 3e38


class TestExtractMismatchedOrDivergedModel:
    def test_vocabulary_size_mismatch_exits_2(self, trained, tmp_path, capsys):
        _, _, checkpoint = trained
        (tmp_path / "seven").mkdir()
        cfg = write_config(tmp_path / "seven", corpus={"concepts": 7})
        corpus = tmp_path / "corpus7"
        assert run(["gen-corpus", "--config", cfg, "--out", corpus]) == 0
        from lexipivot.corpus import read_vocabulary
        trained_size = ParamStore.load(checkpoint.with_suffix(".lxpv"))["embed.la"].data.shape[1]
        corpus_size = read_vocabulary(corpus / "la.vocab.tsv", "la").size
        assert trained_size != corpus_size
        out = tmp_path / "x"
        code = run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", out])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, "'la'", f"{trained_size} entries",
                              f"has {corpus_size}")
        assert not list(out.glob("*.lxwf"))

    def test_grid_size_mismatch_exits_2(self, trained, tmp_path, capsys):
        """A corpus of another grid side, at the checkpoint's feature dim."""
        _, _, checkpoint = trained
        (tmp_path / "grid3").mkdir()
        cfg = write_config(tmp_path / "grid3", corpus={"grid_side": 3})
        corpus = tmp_path / "corpus3"
        assert run(["gen-corpus", "--config", cfg, "--out", corpus]) == 0
        out = tmp_path / "x"
        code = run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", out])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err,
                              f"checkpoint {checkpoint} takes 4 regions per image of feature "
                              f"dim 8, but {corpus / 'la.features.lxpf'} holds 9 regions of "
                              f"feature dim 8")
        assert not list(out.glob("*.lxwf"))

    @pytest.mark.parametrize("method,edit,fragment", [
        ("probe", scale_embeddings, "decoded non-finite features"),
        # probe decodes without the attention scorer; the finite-rows check catches it
        ("probe", overflow_finite_weights, "decoded non-finite features"),
        ("attention", overflow_finite_weights, "attention scores contain NaN or Inf"),
    ], ids=["embeddings scaled by 1e30", "overflowing finite weights",
            "overflowing finite weights, attention"])
    def test_diverged_model_exits_4(self, trained, tmp_path, capsys, method, edit, fragment):
        _, corpus, checkpoint = trained
        (tmp_path / method).mkdir()
        cfg = write_config(tmp_path / method, extraction={"method": method})
        weights = checkpoint.with_suffix(".lxpv")
        params = ParamStore.load(weights)
        edit(params)
        params.save(weights)
        out = tmp_path / "x"
        code = run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", out])
        assert code == 4
        assert_one_error_line(capsys.readouterr().err, f"la: {method} localization", fragment)
        assert not list(out.glob("*.lxwf"))

    def test_overflowing_encoder_exits_4(self, trained, tmp_path, capsys):
        """Encoder weights inside the float32 range whose products are not:
        the load's range check passes, and `tanh` would turn the infinite
        products into saturated, finite regions."""
        cfg, corpus, checkpoint = trained
        weights = checkpoint.with_suffix(".lxpv")
        params = ParamStore.load(weights)
        params["encoder.weight"].data[...] = 3e38
        params.save(weights)
        out = tmp_path / "x"
        code = run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", out])
        assert code == 4
        assert_one_error_line(capsys.readouterr().err, "la: region encoder",
                              "the model has diverged")
        assert not list(out.glob("*.lxwf"))


class TestInduceEval:
    @pytest.fixture()
    def extracted(self, trained):
        cfg, corpus, checkpoint = trained
        out = corpus.parent / "tables"
        assert run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", out]) == 0
        return cfg, corpus, out

    def test_report_rows_cover_every_method(self, extracted, tmp_path):
        cfg, corpus, tables = extracted
        out = tmp_path / "induce"
        assert run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", out]) == 0
        rows = [line.split(",")[:2]
                for line in (out / "report.csv").read_text().splitlines()[1:]]
        assert [method for method, pos in rows if pos == "all"] == sorted(INDUCTION_METHODS)
        for method in INDUCTION_METHODS:
            pos_values = [pos for m, pos in rows if m == method]
            assert pos_values[0] == "all"
            assert set(pos_values[1:]) == {"adj", "func", "noun"}

    def test_rerun_identical_reports(self, extracted, tmp_path):
        cfg, corpus, tables = extracted
        out1, out2 = tmp_path / "i1", tmp_path / "i2"
        for out in (out1, out2):
            assert run(["induce", "--config", cfg, "--tables", tables,
                        "--lexicon", corpus / "lexicon.tsv", "--out", out]) == 0
        for name in ("report.csv", "report.json", "rankings.tsv", "ranks.tsv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_report_rows_recomputed_from_ranks(self, extracted, tmp_path):
        """Every report.csv row's n, MRR, P@K and skipped count follow from
        ranks.tsv, for every method and POS."""
        cfg, corpus, tables = extracted
        out = tmp_path / "induce"
        assert run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", out]) == 0
        lexicon = read_lexicon(corpus / "lexicon.tsv", "la", "lb")
        groups = {}
        lines = (out / "ranks.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(INDUCTION_METHODS) * len(lexicon.entries)
        for line in lines:
            source, method, pos, rank = line.split("\t")
            assert pos == lexicon.pos_of(source)
            assert rank in ("unranked", "gold_outside") or int(rank) >= 1
            for group in ("all", pos):
                groups.setdefault((method, group), []).append(rank)
        expected = {}
        for key, ranks in groups.items():
            best = [int(r) for r in ranks if r not in ("unranked", "gold_outside")]
            if best:
                expected[key] = {"n": len(best), "mrr": sum(1.0 / b for b in best) / len(best),
                                 "skipped": len(ranks) - len(best),
                                 **{f"p{k}": 100.0 * sum(b <= k for b in best) / len(best)
                                    for k in (1, 5, 10, 20)}}
        with open(out / "report.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted((r["method"], r["pos"]) for r in rows) == sorted(expected)
        for row in rows:
            want = expected[row["method"], row["pos"]]
            assert (int(row["n"]), int(row["skipped"])) == (want["n"], want["skipped"]), row
            assert abs(float(row["mrr"]) - want["mrr"]) <= 5e-7, row
            for k in (1, 5, 10, 20):
                assert abs(float(row[f"p{k}"]) - want[f"p{k}"]) <= 5e-5, row

    def test_manifest_counts(self, extracted, tmp_path):
        cfg, corpus, tables = extracted
        out = tmp_path / "induce"
        assert run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", out]) == 0
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        from lexipivot.localization import read_word_features
        words, visual, image_sets = {}, {}, {}
        for lang in ("la", "lb"):
            words[lang] = len(read_word_features(tables / f"{lang}.linguistic.lxwf")[2])
            visual[lang] = len(read_word_features(tables / f"{lang}.visual-probe.lxwf")[2])
            image_sets[lang] = len(read_word_features(tables / f"{lang}.global.lxwf")[2])
        reports = json.loads((out / "report.json").read_text())["reports"]
        skipped = {r["method"]: r["skipped"] for r in reports if r["pos"] == "all"}
        for method, c in counts.items():
            assert c.pop("unranked_lexicon_words") + c.pop("gold_outside_targets") \
                == skipped[method], method
        n = words["la"]
        for method, c in counts.items():   # every ranking scores every target
            assert c.pop("pairs") == c["rankings"] * words["lb"], method
        assert counts["linguistic"] == {"rankings": n, "skipped_sources": 0,
                                        "fallback_pairs": 0}
        assert counts["visual"] == {
            "rankings": visual["la"], "skipped_sources": n - visual["la"],
            "fallback_pairs": visual["la"] * (words["lb"] - visual["lb"])}
        assert counts["fused"] == {
            "rankings": n, "skipped_sources": 0,
            "fallback_pairs": n * words["lb"] - visual["la"] * visual["lb"]}
        for method in ("cnn_mean", "cnn_avgmax"):
            assert counts[method] == {
                "rankings": image_sets["la"], "skipped_sources": n - image_sets["la"],
                "fallback_pairs": image_sets["la"] * (words["lb"] - image_sets["lb"])}

    def test_gold_ranks_once_per_method(self, extracted, tmp_path, monkeypatch):
        """One gold-rank table per method feeds every report row, ranks.tsv
        and the manifest counts."""
        from lexipivot import pipeline
        cfg, corpus, tables = extracted
        calls, held = [], {}
        gold_ranks, score_methods = pipeline.gold_ranks, pipeline.score_methods

        def counting_gold_ranks(scored, gold):
            calls.append(scored)
            return gold_ranks(scored, gold)

        def holding_score_methods(source, target):
            held.update(score_methods(source, target))
            return held

        monkeypatch.setattr(pipeline, "gold_ranks", counting_gold_ranks)
        monkeypatch.setattr(pipeline, "score_methods", holding_score_methods)
        assert run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", tmp_path / "induce"]) == 0
        assert sorted(held) == sorted(INDUCTION_METHODS)
        assert sorted(map(id, calls)) == sorted(map(id, held.values()))

    def test_skipped_lexicon_words_are_counted_by_kind(self, extracted, tmp_path):
        """A lexicon of one word of each kind: evaluated, not ranked (not a
        source word), and ranked with its gold target outside the targets."""
        cfg, corpus, tables = extracted
        first = tmp_path / "first"
        assert run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", first]) == 0
        ranked = {}
        for line in (first / "rankings.tsv").read_text(encoding="utf-8").splitlines():
            source, method, _ = line.split("\t")
            ranked.setdefault(method, set()).add(source)
        lexicon = read_lexicon(corpus / "lexicon.tsv", "la", "lb")
        targets = set(read_word_features(tables / "lb.linguistic.lxwf")[2])
        covered, outside = sorted(w for w in set.intersection(*ranked.values())
                                  if lexicon.entries.get(w, set()) & targets)[:2]
        path = tmp_path / "lexicon.tsv"
        path.write_text(f"{covered}\t{min(lexicon.entries[covered] & targets)}\n"
                        f"{outside}\tnot-a-target-word\n"
                        f"not-a-source-word\t{min(targets)}\n", encoding="utf-8")
        out = tmp_path / "hand-built"
        assert run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", path, "--out", out]) == 0
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()]
        all_rows = {row[0]: dict(zip(rows[0], row)) for row in rows[1:] if row[1] == "all"}
        assert sorted(counts) == sorted(all_rows) == sorted(ranked)
        for method, row in all_rows.items():
            assert (counts[method]["unranked_lexicon_words"],
                    counts[method]["gold_outside_targets"]) == (1, 1), method
            assert (row["n"], row["skipped"]) == ("1", "2"), method

    def test_raw_linguistic_table_exits_3(self, extracted, tmp_path, capsys):
        cfg, corpus, tables = extracted
        from lexipivot.localization import read_word_features, write_word_features
        path = tables / "la.linguistic.lxwf"
        entries = {w: (1, rows) for w, (_, rows) in read_word_features(path)[2].items()}
        last = max(entries)
        entries[last] = (0, entries[last][1][:0])
        write_word_features(path, "la", entries, aggregated=False)
        code = run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", tmp_path / "induce"])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, "la.linguistic.lxwf",
                              "aggregated flag is False", "linguistic table's must be True")

    def test_aggregated_global_table_exits_3(self, extracted, tmp_path, capsys):
        """A global table holds one row per occurrence; one flagged
        aggregated is refused, not ranked as if it were raw."""
        cfg, corpus, tables = extracted
        from lexipivot.localization import read_word_features, write_word_features
        path = tables / "lb.global.lxwf"
        _, _, entries = read_word_features(path)
        write_word_features(path, "lb", {w: (1, rows[:1]) for w, (_, rows) in entries.items()
                                         if len(rows)}, aggregated=True)
        out = tmp_path / "induce"
        code = run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", out])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, "lb.global.lxwf",
                              "aggregated flag is True", "global table's must be False")
        assert not (out / "rankings.tsv").exists()

    def test_non_finite_table_row_exits_3(self, extracted, tmp_path, capsys):
        cfg, corpus, tables = extracted
        from lexipivot.localization import write_word_features
        path = tables / "la.linguistic.lxwf"
        entries = read_word_features(path)[2]
        word = min(entries)
        entries[word][1][0, 0] = np.nan
        write_word_features(path, "la", entries, aggregated=True)
        out = tmp_path / "induce"
        code = run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", out])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, "la.linguistic.lxwf", repr(word))
        assert not (out / "rankings.tsv").exists()

    @pytest.mark.parametrize("kind", ["linguistic", "visual-probe", "global"])
    def test_table_too_large_to_normalize_exits_3(self, extracted, tmp_path, capsys, kind):
        """Values of 1e154 and more overflow a row's norm, which would make the
        row a zero vector; the table is refused instead, without warnings."""
        cfg, corpus, tables = extracted
        from lexipivot.localization import write_word_features
        path = tables / f"la.{kind}.lxwf"
        _, aggregated, entries = read_word_features(path)
        write_word_features(path, "la", {w: (count, rows * 1e200)
                                         for w, (count, rows) in entries.items()}, aggregated)
        out = tmp_path / "induce"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["induce", "--config", cfg, "--tables", tables,
                        "--lexicon", corpus / "lexicon.tsv", "--out", out])
        assert code == 3 and not caught
        assert_one_error_line(capsys.readouterr().err, f"{kind.split('-')[0]} table of 'la'",
                              "too large")
        assert not (out / "rankings.tsv").exists()

    @pytest.mark.parametrize("kind", ["linguistic", "visual-probe", "global"])
    def test_table_scaled_by_two_ranks_the_same(self, extracted, tmp_path, kind):
        """A cosine does not depend on scale, and doubling a row changes no
        bit of its normalized form: every table kind is normalized at
        `induce`, so the outputs keep their bytes."""
        cfg, corpus, tables = extracted
        from lexipivot.localization import write_word_features
        before, after = tmp_path / "before", tmp_path / "after"
        assert run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", before]) == 0
        path = tables / f"la.{kind}.lxwf"
        _, aggregated, entries = read_word_features(path)
        write_word_features(path, "la", {w: (count, rows * 2.0)
                                         for w, (count, rows) in entries.items()}, aggregated)
        assert run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", after]) == 0
        for name in ("rankings.tsv", "report.csv"):
            assert (after / name).read_bytes() == (before / name).read_bytes(), name

    def test_zero_linguistic_row_exits_3(self, extracted, tmp_path, capsys):
        """An embedding column of zeros has no direction to rank by."""
        cfg, corpus, tables = extracted
        from lexipivot.localization import write_word_features
        path = tables / "la.linguistic.lxwf"
        entries = read_word_features(path)[2]
        word = max(entries)
        entries[word][1][...] = 0.0
        write_word_features(path, "la", entries, aggregated=True)
        out = tmp_path / "induce"
        code = run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", out])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, "linguistic table of 'la'", repr(word),
                              "too small to normalize")
        assert not (out / "rankings.tsv").exists()

    def test_table_of_other_language_exits_3(self, extracted, tmp_path, capsys):
        cfg, corpus, tables = extracted
        (tables / "la.global.lxwf").write_bytes((tables / "lb.global.lxwf").read_bytes())
        out = tmp_path / "induce"
        code = run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", out])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, "la.global.lxwf", "'lb'", "'la'")
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("kind", ["linguistic", "visual-probe", "global"])
    def test_tables_of_two_widths_exit_3(self, extracted, tmp_path, capsys, kind):
        cfg, corpus, tables = extracted
        from lexipivot.localization import write_word_features
        path = tables / f"lb.{kind}.lxwf"
        _, aggregated, entries = read_word_features(path)
        width = next(rows.shape[1] for _, rows in entries.values() if len(rows))
        write_word_features(path, "lb", {w: (count, rows[:, :width // 2])
                                         for w, (count, rows) in entries.items()}, aggregated)
        out = tmp_path / "induce"
        code = run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", out])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, f"la.{kind}.lxwf", f"lb.{kind}.lxwf",
                              f"rows {width} wide", f"rows {width // 2} wide")
        assert not (out / "rankings.tsv").exists()

    @pytest.mark.parametrize("empty, fragments", [
        ("la", ("tables of 'la' hold no words", "'lb'")),
        ("lb", ("tables of 'lb' hold no words", "'la'"))])
    def test_language_without_words_exits_4(self, extracted, tmp_path, capsys, empty,
                                            fragments):
        """Every table of one language holds no word, and the other's hold
        two words: either side's error names the empty language and the
        other."""
        cfg, corpus, tables = extracted
        from lexipivot.localization import write_word_features
        for path in sorted(tables.glob("*.lxwf")):
            lang = path.name.split(".")[0]
            kept = [] if lang == empty else sorted(
                read_word_features(tables / f"{lang}.linguistic.lxwf")[2])[:2]
            _, aggregated, entries = read_word_features(path)
            write_word_features(path, lang, {w: entries[w] for w in kept if w in entries},
                                aggregated)
        out = tmp_path / "induce"
        code = run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", out])
        assert code == 4
        assert_one_error_line(capsys.readouterr().err, *fragments)
        assert not (out / "rankings.tsv").exists()

    def test_table_without_rows_fits_any_width(self, extracted, tmp_path):
        """A language whose global sets are all empty ranks no source word by
        the CNN baselines, whatever the other language's width."""
        cfg, corpus, tables = extracted
        from lexipivot.localization import write_word_features
        path = tables / "la.global.lxwf"
        entries = read_word_features(path)[2]
        write_word_features(path, "la", {w: (0, np.zeros((0, 0))) for w in entries},
                            aggregated=False)
        out = tmp_path / "induce"
        assert run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", out]) == 0
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        assert counts["cnn_mean"]["rankings"] == counts["cnn_avgmax"]["rankings"] == 0

    def test_degenerate_global_set_skips_the_word_for_cnn_mean_alone(self, extracted,
                                                                       tmp_path):
        cfg, corpus, tables = extracted
        from lexipivot.localization import read_word_features, write_word_features

        def induce(out):
            assert run(["induce", "--config", cfg, "--tables", tables,
                        "--lexicon", corpus / "lexicon.tsv", "--out", out]) == 0
            cells = {}
            for line in (out / "rankings.tsv").read_text(encoding="utf-8").splitlines():
                source, method, ranked = line.split("\t")
                cells.setdefault(method, {})[source] = ranked
            return cells, json.loads((out / "manifest.json").read_text())["counts"]

        before, counts_before = induce(tmp_path / "before")
        path = tables / "la.global.lxwf"
        entries = read_word_features(path)[2]
        word = min(entries)
        r = entries[word][1][0]
        entries[word] = (2, np.stack([r, -r]))   # a set whose mean is zero
        write_word_features(path, "la", entries, aggregated=False)
        after, counts = induce(tmp_path / "after")

        # a lexicon word with a gold target among the targets, unranked after the edit
        lexicon = read_lexicon(corpus / "lexicon.tsv", "la", "lb")
        targets = set(read_word_features(tables / "lb.linguistic.lxwf")[2])
        assert lexicon.entries[word] & targets
        unranked = counts_before["cnn_mean"]["unranked_lexicon_words"] + 1
        assert counts["cnn_mean"] == {**counts_before["cnn_mean"],
                                      "rankings": counts_before["cnn_mean"]["rankings"] - 1,
                                      "pairs": counts_before["cnn_mean"]["pairs"] - len(targets),
                                      "skipped_sources": 1, "unranked_lexicon_words": unranked}
        assert after["cnn_mean"] == {w: c for w, c in before["cnn_mean"].items() if w != word}
        for method in ("linguistic", "visual", "fused", "cnn_avgmax"):
            assert counts[method] == counts_before[method], method
            assert after[method].keys() == before[method].keys(), method
            # only cnn_avgmax reads the edited rows, in the edited word's own ranking
            unchanged = {w: c for w, c in before[method].items()
                         if method != "cnn_avgmax" or w != word}
            assert {w: after[method][w] for w in unchanged} == unchanged, method


def pack_v1_weights(path):
    """Rewrite checkpoint weights in their version-1 layout: a parameter
    count, then per parameter its name, rank, dims and float64 data."""
    params = ParamStore.load(path)
    parts = [b"LXPV", struct.pack("<II", 1, len(params.names()))]
    for name, p in params.items():
        parts += [struct.pack("<I", len(name.encode())), name.encode(),
                  struct.pack("<I", p.data.ndim),
                  struct.pack(f"<{p.data.ndim}Q", *p.data.shape), p.data.astype("<f8").tobytes()]
    path.write_bytes(b"".join(parts))


def pack_v1_features(path):
    """Rewrite region features in their version-1 layout: count, K and D,
    then per image its id and float32 grid."""
    features = dict(zip(*read_features(path)))
    k, d = next(iter(features.values())).shape
    parts = [b"LXPF", struct.pack("<IIII", 1, len(features), k, d)]
    for image_id in sorted(features):
        parts += [struct.pack("<Q", image_id), features[image_id].astype("<f4").tobytes()]
    path.write_bytes(b"".join(parts))


def pack_v1_table(path):
    """Rewrite a word table in its version-1 layout: flags, D, word count and
    language, then per word its name, occurrence count and float64 rows."""
    language, aggregated, entries = read_word_features(path)
    d = next(iter(entries.values()))[1].shape[1]
    parts = [b"LXWF", struct.pack("<IIII", 1, int(aggregated), d, len(entries)),
             struct.pack("<I", len(language.encode())), language.encode()]
    for word in sorted(entries):
        count, rows = entries[word]
        parts += [struct.pack("<I", len(word.encode())), word.encode(),
                  struct.pack("<I", count), rows.astype("<f8").tobytes()]
    path.write_bytes(b"".join(parts))


class TestVersion1Files:
    """Files in the layouts that the one array container replaced exit 3,
    naming the file and its version."""

    def test_checkpoint_weights(self, trained, tmp_path, capsys):
        cfg, corpus, checkpoint = trained
        weights = checkpoint.with_suffix(".lxpv")
        pack_v1_weights(weights)
        code = run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", tmp_path / "x"])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err,
                              f"{weights}: LXPV version 1 is not supported")

    def test_region_features(self, corpus_dir, tmp_path, capsys):
        cfg, corpus = corpus_dir
        features = corpus / "lb.features.lxpf"
        pack_v1_features(features)
        code = run(["train", "--config", cfg, "--corpus", corpus, "--out", tmp_path / "x"])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err,
                              f"{features}: LXPF version 1 is not supported")

    def test_word_table(self, trained, tmp_path, capsys):
        cfg, corpus, checkpoint = trained
        tables = tmp_path / "tables"
        assert run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", tables]) == 0
        table = tables / "la.global.lxwf"
        pack_v1_table(table)
        code = run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", tmp_path / "x"])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err,
                              f"{table}: LXWF version 1 is not supported")


class TestPipeline:
    def test_end_to_end_and_console_entry(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "pipe"
        proc = subprocess.run(
            [sys.executable, "-m", "lexipivot", "pipeline", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for sub in ("corpus", "train", "features", "induction"):
            assert (out / sub / "manifest.json").exists()
        report = json.loads((out / "induction" / "report.json").read_text())
        assert report["reports"]

    def test_matches_the_stages_run_one_by_one(self, tmp_path):
        cfg = write_config(tmp_path)
        pipe, stages = tmp_path / "pipe", tmp_path / "stages"
        assert run(["pipeline", "--config", cfg, "--out", pipe]) == 0
        assert run(["gen-corpus", "--config", cfg, "--out", stages / "corpus"]) == 0
        assert run(["train", "--config", cfg, "--corpus", stages / "corpus",
                    "--out", stages / "train"]) == 0
        assert run(["extract", "--config", cfg, "--checkpoint", stages / "train" / "checkpoint",
                    "--corpus", stages / "corpus", "--out", stages / "features"]) == 0
        assert run(["induce", "--config", cfg, "--tables", stages / "features",
                    "--lexicon", stages / "corpus" / "lexicon.tsv",
                    "--out", stages / "induction"]) == 0
        corpus_files = [f"corpus/{lang}.{suffix}" for lang in ("la", "lb")
                        for suffix in ("features.lxpf", "captions.tsv", "vocab.tsv")]
        tables = [f"features/{lang}.{kind}.lxwf" for lang in ("la", "lb")
                  for kind in ("visual-probe", "linguistic", "global")]
        for name in [*corpus_files, "corpus/lexicon.tsv", "train/checkpoint.lxpv",
                     "train/checkpoint.json", "train/log.csv", *tables,
                     "induction/rankings.tsv", "induction/report.csv", "induction/report.json"]:
            assert (pipe / name).read_bytes() == (stages / name).read_bytes(), name

        from lexipivot.manifest import file_digest
        inputs = json.loads((pipe / "features" / "manifest.json").read_text())["inputs"]
        expected = [pipe / "train" / "checkpoint.lxpv", pipe / "train" / "checkpoint.json",
                    *(pipe / f for f in corpus_files)]
        assert inputs == {str(path): file_digest(path) for path in expected}
        train_inputs = json.loads((pipe / "train" / "manifest.json").read_text())["inputs"]
        assert train_inputs == {str(pipe / f): file_digest(pipe / f) for f in corpus_files}

    def test_later_stages_read_the_grid_from_the_corpus_files(self, corpus_dir, tmp_path):
        """The corpus was written with grid_side 2 and feature_dim 8. A config
        that omits both keys (defaults 3 and 32) trains, extracts and induces
        on it, and writes the bytes that the matching config writes."""
        cfg, corpus = corpus_dir
        settings = json.loads(cfg.read_text())
        del settings["corpus"]["grid_side"], settings["corpus"]["feature_dim"]
        omitted = tmp_path / "omitted.json"
        omitted.write_text(json.dumps(settings))
        runs = []
        for config in (cfg, omitted):
            out = tmp_path / f"run-{config.stem}"
            assert run(["train", "--config", config, "--corpus", corpus,
                        "--out", out / "train"]) == 0
            assert run(["extract", "--config", config, "--corpus", corpus,
                        "--checkpoint", out / "train" / "checkpoint",
                        "--out", out / "features"]) == 0
            assert run(["induce", "--config", config, "--tables", out / "features",
                        "--lexicon", corpus / "lexicon.tsv", "--out", out / "induction"]) == 0
            runs.append(out)
        # the config echoes and manifests name the config and its hash
        names = sorted(path.relative_to(runs[0]) for path in runs[0].rglob("*.*")
                       if path.name not in ("resolved_config.json", "manifest.json"))
        assert len(names) == 3 + 6 + 4   # train, features, induction
        for name in names:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("command,args", [
        ("extract", ["--checkpoint", "k", "--corpus", "c", "--method", "probe"]),
        ("induce", ["--tables", "t", "--lexicon", "l", "--methods", "fused"]),
    ])
    def test_removed_method_flags_are_usage_errors(self, tmp_path, capsys, command, args):
        out = tmp_path / "x"
        assert run([command, "--out", out, *args]) == 2
        assert_one_error_line(capsys.readouterr().err,
                              f"unrecognized arguments: {' '.join(args[-2:])}")
        assert not out.exists()

    def test_removed_eval_command_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(["eval", "--rankings", "r", "--lexicon", "l", "--out", out]) == 2
        assert_one_error_line(capsys.readouterr().err, "invalid choice: 'eval'")
        assert not out.exists()

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
