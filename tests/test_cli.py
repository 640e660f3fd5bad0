import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from lexipivot.caption import split_by_scene
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
            "clip norm", "model dtype", "extraction cap", "induction methods",
            "fusion lambda", "full rankings", "ranking width", "baseline set cap",
            "source language", "target language", "precision cut-offs"])
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

    def test_io_failure_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = run(["gen-corpus", "--config", cfg, "--out", blocker / "sub"])
        assert code == 3
        assert capsys.readouterr().err.startswith("lexipivot-error:")


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
        la_ids = sorted(read_features(corpus / "la.features.lxpf"))
        lb_features = read_features(corpus / "lb.features.lxpf")
        renumber = dict(zip(sorted(lb_features), la_ids))
        write_features(corpus / "lb.features.lxpf",
                       {renumber[i]: grid for i, grid in lb_features.items()})
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
            per_batch = localization.ROW_CAP // 4        # probe: 4 decode rows per caption
            lengths = Counter(len(cap.words) for cap in captions)
            assert counts[lang] == {
                "occurrences": sum(words.values()),
                "dropped_unk": sum(words.values()) - sum(known.values()),
                "words": len(known),
                "batches": sum(-(-n // per_batch) for n in lengths.values()),
            }
            _, _, table = read_word_features(out / f"{lang}.visual-probe.lxwf")
            assert len(table) == counts[lang]["words"]

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
    kept = ParamStore()
    for name, p in ParamStore.load(weights).items():
        if not name.startswith("attn."):
            kept.add(name, p)
    kept.save(weights)


def one_weight_beyond_float32(params):
    params["lstm.w_hh"].data[0, 0] = 1e300  # float64 on disk, float32 in the sidecar


def add_removed_keys(text):
    """The sidecar as the caption model with attention and encoder settings wrote it."""
    return json.dumps({**json.loads(text), "attention": True, "freeze_encoder": False})


class TestExtractBadCheckpoint:
    @pytest.mark.parametrize("edit,fragment", [
        (edit_sidecar(lambda text: "{bad"), "not a JSON"),
        (edit_sidecar(lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                               if k != "dims"})), "'dims'"),
        (edit_sidecar(lambda text: json.dumps({**json.loads(text), "checkpoint_version": 2})),
         "checkpoint_version 2"),
        (mean_pool_checkpoint, "'attn.b1'"),
        (edit_sidecar(lambda text: json.dumps({**json.loads(text), "dtype": "int8"})), "int8"),
        (edit_weights(one_weight_beyond_float32), "'lstm.w_hh'"),
    ], ids=["undecodable", "missing key", "version", "attention off", "int8",
            "weight beyond float32"])
    def test_exits_3(self, trained, tmp_path, capsys, edit, fragment):
        cfg, corpus, checkpoint = trained
        edit(checkpoint)
        code = run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", tmp_path / "x"])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, "checkpoint.json", fragment)

    def test_sidecar_with_removed_model_keys_extracts_identically(self, trained, tmp_path):
        cfg, corpus, checkpoint = trained
        before, after = tmp_path / "as written", tmp_path / "with removed keys"
        assert run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", before]) == 0
        edit_sidecar(add_removed_keys)(checkpoint)
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


def overflow_one_recurrent_weight(params):
    params["lstm.w_hh"].data[0, 0] = np.inf  # 0 * inf from the zero start state


class TestExtractMismatchedOrDivergedModel:
    def test_vocabulary_size_mismatch_exits_2(self, trained, tmp_path, capsys):
        _, _, checkpoint = trained
        (tmp_path / "seven").mkdir()
        cfg = write_config(tmp_path / "seven", corpus={"concepts": 7})
        corpus = tmp_path / "corpus7"
        assert run(["gen-corpus", "--config", cfg, "--out", corpus]) == 0
        from lexipivot.corpus import read_vocabulary
        trained_size = json.loads(checkpoint.with_suffix(".json").read_text())["languages"]["la"]
        corpus_size = read_vocabulary(corpus / "la.vocab.tsv", "la").size
        assert trained_size != corpus_size
        out = tmp_path / "x"
        code = run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", out])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, "'la'", f"{trained_size} entries",
                              f"has {corpus_size}")
        assert not list(out.glob("*.lxwf"))

    @pytest.mark.parametrize("edit,fragment", [
        (scale_embeddings, "decoded non-finite features"),
        (overflow_one_recurrent_weight, "attention scores contain NaN or Inf"),
    ], ids=["embeddings scaled by 1e30", "one infinite recurrent weight"])
    def test_diverged_model_exits_4(self, trained, tmp_path, capsys, edit, fragment):
        _, corpus, checkpoint = trained
        (tmp_path / "probe").mkdir()
        cfg = write_config(tmp_path / "probe", extraction={"method": "probe"})
        weights = checkpoint.with_suffix(".lxpv")
        params = ParamStore.load(weights)
        edit(params)
        params.save(weights)
        out = tmp_path / "x"
        code = run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", out])
        assert code == 4
        assert_one_error_line(capsys.readouterr().err, "la: probe localization", fragment)
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
        for name in ("report.csv", "report.json", "rankings.tsv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

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

    def test_raw_linguistic_table_exits_2(self, extracted, tmp_path, capsys):
        cfg, corpus, tables = extracted
        from lexipivot.localization import read_word_features, write_word_features
        path = tables / "la.linguistic.lxwf"
        entries = {w: (1, rows) for w, (_, rows) in read_word_features(path)[2].items()}
        last = max(entries)    # the writer takes the row width from the first word
        entries[last] = (0, entries[last][1][:0])
        write_word_features(path, "la", entries, aggregated=False)
        code = run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", tmp_path / "induce"])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, "linguistic table for la")

    def test_table_of_other_language_exits_3(self, extracted, tmp_path, capsys):
        cfg, corpus, tables = extracted
        (tables / "la.global.lxwf").write_bytes((tables / "lb.global.lxwf").read_bytes())
        out = tmp_path / "induce"
        code = run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", out])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, "la.global.lxwf", "'lb'", "'la'")
        assert not (out / "report.csv").exists()

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
    features = read_features(path)
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
                     "train/log.csv", *tables, "induction/rankings.tsv",
                     "induction/report.csv", "induction/report.json"]:
            assert (pipe / name).read_bytes() == (stages / name).read_bytes(), name
        # the checkpoint sidecars differ only in the corpus paths they name
        sidecars = [json.loads((out / "train" / "checkpoint.json").read_text())
                    for out in (pipe, stages)]
        for sidecar in sidecars:
            sidecar.pop("vocab_paths")
        assert sidecars[0] == sidecars[1]

        from lexipivot.manifest import file_digest
        inputs = json.loads((pipe / "features" / "manifest.json").read_text())["inputs"]
        expected = [pipe / "train" / "checkpoint.lxpv", pipe / "train" / "checkpoint.json",
                    *(pipe / f for f in corpus_files)]
        assert inputs == {str(path): file_digest(path) for path in expected}
        train_inputs = json.loads((pipe / "train" / "manifest.json").read_text())["inputs"]
        assert train_inputs == {str(pipe / f): file_digest(pipe / f) for f in corpus_files}

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
