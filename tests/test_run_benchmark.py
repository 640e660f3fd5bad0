"""scripts/run_benchmark.py --json on a tiny config: the BENCH record."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmark.py"
CONFIG = {
    "seed": 11,
    "corpus": {"concepts": 5, "attributes": 2, "grid_side": 2, "images_per_language": 30,
               "captions_per_image": 2, "feature_dim": 8, "min_count": 1},
    "model": {"embed_dim": 12, "attn_dim": 6},
    "training": {"max_epochs": 2, "batch_size": 8, "learning_rate": 0.005},
}


def run_script(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_json_record(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    bench = tmp_path / "nested" / "BENCH_test.json"
    proc = run_script("--config", config, "--out", tmp_path / "run", "--json", bench)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(bench.read_text())
    assert record["seed"] == 11
    assert sorted(record["stage_s"]) == ["extract", "gen-corpus", "induce", "train"]
    assert record["train"]["epochs_run"] == 2 and 1 <= record["train"]["best_epoch"] <= 2
    assert record["train"]["s_per_epoch"] > 0 and record["train"]["tokens_per_s"] > 0
    # the tokens come from the train manifest's counts, over its train timing
    trained = json.loads((tmp_path / "run" / "train" / "manifest.json").read_text())
    epoch_tokens = sum(c["train_targets"] for c in trained["counts"].values())
    assert epoch_tokens > 0
    assert record["train"]["tokens_per_s"] == epoch_tokens * 2 / trained["timings"]["train"]
    assert record["extract"]["method"] == "probe"
    assert record["extract"]["occurrences"] > 0 and record["extract"]["occurrences_per_s"] > 0
    # captions of one image share decode states
    assert 0 < record["extract"]["decoded"] <= record["extract"]["occurrences"]
    # the pairs come from the induce manifest's counts, over its rank timing
    induced = json.loads((tmp_path / "run" / "induction" / "manifest.json").read_text())
    pairs = sum(c["pairs"] for c in induced["counts"].values())
    assert pairs > 0 and record["induce"]["pairs"] == pairs
    assert record["induce"]["pairs_per_s"] == pairs / induced["timings"]["rank"]
    # and the induce stage's phase times, as its manifest holds them
    assert sorted(record["induce"]["timings"]) == ["evaluate", "load", "rank", "write"]
    assert record["induce"]["timings"] == induced["timings"]
    assert record["peak_rss_mb"] > 0
    assert sorted(record["methods"]) == ["cnn_avgmax", "cnn_mean", "fused", "linguistic",
                                         "visual"]
    report = json.loads((tmp_path / "run" / "induction" / "report.json").read_text())
    for r in report["reports"]:
        if r["pos"] == "all":
            assert record["methods"][r["method"]] == {"mrr": r["mrr"], "p1": r["p1"]}
    env = record["environment"]
    assert env["numpy"] and env["cpu_count"] >= 1
    assert env["blas_threads"] is None or env["blas_threads"] >= 1
    # the BLAS build, as perfbench records it, so two BENCH files can be matched
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        expected = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        expected = "unknown"
    assert env["blas"] == expected


def test_removed_setting_exits_2(tmp_path):
    config, out = tmp_path / "config.json", tmp_path / "run"
    for section, key, value, message in [
            ("induction", "ks", [1, 5], "unknown config key: induction"),
            ("induction", "methods", ["fused"], "unknown config key: induction"),
            ("induction", "fusion_lambda", 0.5, "unknown config key: induction"),
            ("extraction", "cap", 3, "unknown config key: extraction.cap"),
            ("model", "dtype", "float32", "unknown config key: model.dtype"),
            ("training", "clip_norm", 5.0, "unknown config key: training.clip_norm")]:
        config.write_text(json.dumps({**CONFIG, section: {**CONFIG.get(section, {}),
                                                          key: value}}))
        proc = run_script("--config", config, "--out", out)
        assert proc.returncode == 2, key
        assert proc.stderr == f"lexipivot-error: {message}\n"
        assert proc.stdout == "" and not out.exists()


def test_missing_config_file_exits_3(tmp_path):
    missing, out = tmp_path / "no-such-config.json", tmp_path / "run"
    proc = run_script("--config", missing, "--out", out)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lexipivot-error:"), proc.stderr
    assert str(missing) in lines[0]
    assert proc.stdout == "" and not out.exists()


def test_unwritable_bench_path_exits_3(tmp_path):
    config, blocker = tmp_path / "config.json", tmp_path / "a-file"
    config.write_text(json.dumps(CONFIG))
    blocker.write_text("not a directory")
    proc = run_script("--config", config, "--out", tmp_path / "run",
                      "--json", blocker / "BENCH_test.json")
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lexipivot-error:"), proc.stderr
    assert str(blocker) in lines[0]


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    """The script shares the CLI's handled errors, a MemoryError among them."""
    spec = importlib.util.spec_from_file_location("run_benchmark", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def out_of_memory(config, out_dir):
        raise MemoryError("Unable to allocate 1.00 TiB")
    monkeypatch.setattr(script, "run_pipeline", out_of_memory)
    monkeypatch.setattr(sys, "argv", ["run_benchmark.py", "--out", str(tmp_path / "run")])
    assert script.main() == 2
    captured = capsys.readouterr()
    assert captured.err == ("lexipivot-error: the run's sizes need more memory than is "
                            "available (Unable to allocate 1.00 TiB)\n")
    assert captured.out == ""
