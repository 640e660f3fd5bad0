import json
import subprocess
import sys

import numpy as np
import pytest

from lexipivot.cli import main
from lexipivot.corpus import read_lexicon
from lexipivot.localization import read_word_features
from lexipivot.numerics import ParamStore


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
        assert len(lexicon) == 5 + 2 + 2
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
        path.write_text(json.dumps({"extraction": {"cap": "3"}}))
        code = run(["gen-corpus", "--config", path, "--out", tmp_path / "x"])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, "extraction.cap")

    @pytest.mark.parametrize("section,key,value,fragment", [
        ("model", "attention", False, "unknown config key: model.attention"),
        ("model", "freeze_encoder", True, "unknown config key: model.freeze_encoder"),
        ("corpus", "disjoint_images", False, "unknown config key: corpus.disjoint_images"),
        ("corpus", "images_per_language", {"la": 30, "lb": 20},
         "config key corpus.images_per_language must be int"),
    ], ids=["mean-pool decoder", "frozen encoder", "shared image pool",
            "per-language image counts"])
    def test_removed_setting_exits_2(self, tmp_path, capsys, section, key, value, fragment):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({section: {key: value}}))
        code = run(["gen-corpus", "--config", path, "--out", tmp_path / "x"])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, fragment)

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

    def test_caption_with_unknown_image_id_exits_3(self, corpus_dir, tmp_path, capsys):
        cfg, corpus = corpus_dir
        with open(corpus / "la.captions.tsv", "a", encoding="utf-8") as fh:
            fh.write("999999\tla\tsome words\n")
        code = run(["train", "--config", cfg, "--corpus", corpus,
                    "--out", tmp_path / "x"])
        err = capsys.readouterr().err
        assert code == 3
        assert_one_error_line(err, "la.captions.tsv", "999999")


@pytest.fixture()
def trained(corpus_dir, tmp_path):
    cfg, corpus = corpus_dir
    out = tmp_path / "train"
    assert run(["train", "--config", cfg, "--corpus", corpus, "--out", out]) == 0
    return cfg, corpus, out / "checkpoint"


class TestExtract:
    def test_methods_write_distinct_tables_same_inventory(self, trained, tmp_path):
        cfg, corpus, checkpoint = trained
        out_p = tmp_path / "probe"
        out_a = tmp_path / "attn"
        assert run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", out_p, "--method", "probe"]) == 0
        assert run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", out_a, "--method", "attention"]) == 0
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
        _, corpus, checkpoint = trained
        (tmp_path / "capped").mkdir()
        cfg = write_config(tmp_path / "capped", extraction={"cap": 3})
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
                "subsampled_words": sum(n > 3 for n in known.values()),
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
        cfg, corpus, checkpoint = trained
        weights = checkpoint.with_suffix(".lxpv")
        params = ParamStore.load(weights)
        edit(params)
        params.save(weights)
        out = tmp_path / "x"
        code = run(["extract", "--config", cfg, "--checkpoint", checkpoint,
                    "--corpus", corpus, "--out", out, "--method", "probe"])
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

    def test_single_method_report_rows(self, extracted, tmp_path):
        cfg, corpus, tables = extracted
        out = tmp_path / "induce"
        assert run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", out,
                    "--methods", "fused"]) == 0
        rows = (out / "report.csv").read_text().splitlines()
        methods = {line.split(",")[0] for line in rows[1:]}
        assert methods == {"fused"}
        pos_values = [line.split(",")[1] for line in rows[1:]]
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
        n = words["la"]
        assert counts["linguistic"] == {"rankings": n, "skipped_sources": 0,
                                        "fallback_pairs": 0}
        assert counts["visual"] == {
            "rankings": visual["la"], "skipped_sources": n - visual["la"],
            "fallback_pairs": visual["la"] * (words["lb"] - visual["lb"])}
        assert counts["fused"] == {
            "rankings": n, "skipped_sources": 0,
            "fallback_pairs": n * words["lb"] - visual["la"] * visual["lb"]}
        for method in ("cnn_mean", "cnn_avgmax"):
            assert counts[method] == {"rankings": image_sets["la"],
                                      "skipped_sources": n - image_sets["la"],
                                      "fallback_pairs": 0}

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

    def test_eval_rescores_rankings(self, extracted, tmp_path):
        cfg, corpus, tables = extracted
        induce_out = tmp_path / "induce"
        assert run(["induce", "--config", cfg, "--tables", tables,
                    "--lexicon", corpus / "lexicon.tsv", "--out", induce_out,
                    "--methods", "fused", "linguistic"]) == 0
        eval_out = tmp_path / "eval"
        assert run(["eval", "--config", cfg, "--rankings", induce_out / "rankings.tsv",
                    "--lexicon", corpus / "lexicon.tsv", "--out", eval_out]) == 0
        rows = (eval_out / "report.csv").read_text().splitlines()
        assert {line.split(",")[0] for line in rows[1:]} == {"fused", "linguistic"}


class TestEvalMalformedRankings:
    @pytest.mark.parametrize("line, fragment", [
        ("a\tfused\tb:notanumber,c:0.5\n", "notanumber"),
        ("a\tb:0.5\n", "got 2"),
    ])
    def test_exits_3(self, tmp_path, capsys, line, fragment):
        cfg = write_config(tmp_path)
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("a\tb\n", encoding="utf-8")
        rankings = tmp_path / "rankings.tsv"
        rankings.write_text(line, encoding="utf-8")
        code = run(["eval", "--config", cfg, "--rankings", rankings,
                    "--lexicon", lexicon, "--out", tmp_path / "eval"])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, "rankings.tsv:1", fragment)


    def test_non_utf8_byte_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("a\tb\n", encoding="utf-8")
        rankings = tmp_path / "rankings.tsv"
        rankings.write_bytes(b"a\tfused\tb:0.5\nc\tfused\tb\xff:0.5\n")
        code = run(["eval", "--config", cfg, "--rankings", rankings,
                    "--lexicon", lexicon, "--out", tmp_path / "eval"])
        assert code == 3
        assert_one_error_line(capsys.readouterr().err, "rankings.tsv:2", "not valid UTF-8")


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

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
