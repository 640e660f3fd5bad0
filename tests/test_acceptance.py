"""Fast end-to-end gate: the whole pipeline at a reduced config, run twice.

The first run takes the BLAS thread count of the test process (CI pins
`OPENBLAS_NUM_THREADS=1`); the second runs in a subprocess with two BLAS
threads, so the byte-identity check also covers the thread count.

The bounds come from a measured run at this config and seed (27 source
words; MRR fused 0.975, visual 0.860, cnn_mean 0.889, linguistic 0.627,
cnn_avgmax 0.503, the same with one and two BLAS threads), not from the
paper: at this scale the linguistic method is still weak and visual is
below cnn_mean, so only the ends of the ordering are asserted. The
default benchmark (`scripts/run_benchmark.py`) stays the slow check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexipivot
from lexipivot.cli import main

pytestmark = pytest.mark.acceptance

CONFIG = {
    "seed": 17,
    "corpus": {"concepts": 20, "images_per_language": 400, "min_count": 3},
    "training": {"max_epochs": 30, "learning_rate": 0.01},
}
DETERMINISTIC = (*(f"corpus/{lang}.{suffix}" for lang in ("la", "lb")
                   for suffix in ("features.lxpf", "captions.tsv", "vocab.tsv")),
                 "corpus/lexicon.tsv",
                 "train/checkpoint.lxpv", "train/checkpoint.json", "train/log.csv",
                 *(f"features/{lang}.{kind}.lxwf" for lang in ("la", "lb")
                   for kind in ("linguistic", "visual-probe", "global")),
                 "induction/rankings.tsv", "induction/ranks.tsv", "induction/report.csv",
                 "induction/report.json",
                 # the config echoes hold no path, so runs into two directories match
                 *(f"{stage}resolved_config.json"
                   for stage in ("", "corpus/", "train/", "features/", "induction/")))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    first, second = root / "first", root / "second"
    assert main(["pipeline", "--config", str(config), "--out", str(first)]) == 0
    src = str(Path(lexipivot.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "lexipivot", "pipeline", "--config",
                           str(config), "--out", str(second)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return first, second


def test_two_runs_are_byte_identical(runs):
    first, second = runs
    for name in DETERMINISTIC:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_method_ordering(runs):
    report = json.loads((runs[0] / "induction" / "report.json").read_text())
    mrr = {r["method"]: r["mrr"] for r in report["reports"] if r["pos"] == "all"}
    assert sorted(mrr) == ["cnn_avgmax", "cnn_mean", "fused", "linguistic", "visual"]
    others = [m for m in mrr if m != "fused"]
    assert mrr["fused"] >= 0.90
    assert all(mrr["fused"] >= mrr[m] + 0.02 for m in others), mrr
    assert all(mrr["cnn_avgmax"] <= mrr[m] - 0.10 for m in others if m != "cnn_avgmax"), mrr
