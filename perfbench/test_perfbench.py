"""Fast self-test of the benchmark: every workload at the tiny scale.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# workload figures printed before the result line, with their units
FIGURES = {
    "train": {"train_tokens_per_s": "tokens/s", "val_loss": "nats"},
    "extract": {"probe_occurrences_per_s": "occurrences/s",
                "attention_occurrences_per_s": "occurrences/s",
                "mrr_fused": "MRR", "mrr_visual": "MRR", "p1_fused": "%"},
    "induce": {"induce_pairs_per_s": "pairs/s", "mrr_fused": "MRR",
               "mrr_visual": "MRR", "p1_fused": "%"},
}


@functools.lru_cache(maxsize=None)
def run_tiny(workload: str, trace: int) -> tuple[tuple[str, ...], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = tuple(proc.stdout.strip().splitlines())
    return lines, json.loads(lines[-1])


def printed_figures(lines) -> dict[str, tuple[float, str]]:
    out = {}
    for line in lines:
        if line.startswith("figure "):
            _, name, _, value, unit = line.split()
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    figures = printed_figures(lines)
    for name, unit in FIGURES[workload].items():
        assert figures[name][1] == unit
    assert figures["failed_fraction"] == (0.0, "ratio")
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["blas_threads"] == 1 and env["cpu_count"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_outputs_unchanged(workload):
    digests = [next(line for line in run_tiny(workload, trace)[0]
                    if line.startswith("digest ")) for trace in (0, 1)]
    assert digests[0] == digests[1]


def test_traced_self_times_account_for_the_operation():
    metrics = run_tiny("extract", 1)[1]["metrics"]
    assert metrics["trace.accounted_ratio"]["value"] > 0.95
    assert metrics["localization.occurrences"]["value"] > 0
    assert metrics["numerics.lstm_step_calls"]["value"] > 0


def test_truncated_table_counts_as_failure(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    from workloads import ExtractWorkload

    def truncate_first_table(out_dir):
        table = sorted(Path(out_dir).glob("probe/*.lxwf"))[0]
        table.write_bytes(table.read_bytes()[:-8])

    workload = ExtractWorkload(seed=3, scale="tiny", work_dir=tmp_path)
    m = run.measure(workload, seconds=0.0, trace=False, after_run=truncate_first_table)
    assert (m.attempted, m.failed) == (1, 1)
    assert run.figures(m)["failed_fraction"] == (1.0, "ratio")
