"""Fast end-to-end gate: the whole pipeline at a reduced config, run twice.

The bounds come from a measured run at this config and seed (27 source
words; MRR fused 0.954, visual 0.903, cnn_mean 0.850, linguistic 0.620,
cnn_avgmax 0.447), not from the paper: at this scale the linguistic
method is still weak, so only the ends of the ordering are asserted.
The default benchmark (`scripts/run_benchmark.py`) stays the slow check.
"""

import json

import pytest

from lexipivot.cli import main

pytestmark = pytest.mark.acceptance

CONFIG = {
    "seed": 17,
    "corpus": {"concepts": 20, "images_per_language": 400, "min_count": 3},
    "training": {"max_epochs": 30, "learning_rate": 0.01},
}
DETERMINISTIC = ("train/checkpoint.lxpv", "train/log.csv",
                 *(f"features/{lang}.{kind}.lxwf" for lang in ("la", "lb")
                   for kind in ("linguistic", "visual-probe", "global")),
                 "induction/rankings.tsv", "induction/report.csv")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    outs = [root / "first", root / "second"]
    for out in outs:
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    return outs


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
