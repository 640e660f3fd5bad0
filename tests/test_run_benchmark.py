"""scripts/run_benchmark.py --json on a tiny config: the BENCH record."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmark.py"
CONFIG = {
    "seed": 11,
    "corpus": {"concepts": 5, "attributes": 2, "grid_side": 2, "images_per_language": 30,
               "captions_per_image": 2, "feature_dim": 8, "min_count": 1},
    "model": {"embed_dim": 12, "attn_dim": 6},
    "training": {"max_epochs": 2, "batch_size": 8, "learning_rate": 0.005},
}


def test_json_record(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    bench = tmp_path / "nested" / "BENCH_test.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--config", str(config), "--out", str(tmp_path / "run"),
         "--json", str(bench)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(bench.read_text())
    assert record["seed"] == 11
    assert sorted(record["stage_s"]) == ["extract", "gen-corpus", "induce", "train"]
    assert record["train"]["epochs_run"] == 2 and 1 <= record["train"]["best_epoch"] <= 2
    assert record["train"]["s_per_epoch"] > 0 and record["train"]["tokens_per_s"] > 0
    assert record["extract"]["method"] == "probe"
    assert record["extract"]["occurrences"] > 0 and record["extract"]["occurrences_per_s"] > 0
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


def test_removed_setting_exits_2(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "induction": {"ks": [1, 5]}}))
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert proc.stderr == "lexipivot-error: unknown config key: induction.ks\n"
    assert not out.exists()
