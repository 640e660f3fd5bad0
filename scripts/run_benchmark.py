"""Run the full synthetic benchmark and print the method comparison table.

Equivalent to `lexipivot pipeline` on the default configuration, plus a
compact stdout summary of every method's MRR / P@K row. With `--json PATH`
it also writes the run's measurements (a BENCH file): wall time per stage,
training s/epoch and tokens/s, extraction occurrences/s and the decode
states behind them, induction (source, target) pairs scored per second,
peak RSS, MRR and P@1 per method, and the numpy, CPU, BLAS library and
BLAS thread setup they were taken on.

    OPENBLAS_NUM_THREADS=1 python scripts/run_benchmark.py --json BENCH_x.json
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from lexipivot.cli import HANDLED_ERRORS, report_error, resolve_config  # noqa: E402
from lexipivot.config import RunConfig  # noqa: E402
from lexipivot.pipeline import run_pipeline  # noqa: E402


def _manifest(out_dir) -> dict:
    return json.loads((Path(out_dir) / "manifest.json").read_text("utf-8"))


def blas_library() -> str:
    """The name and version of the BLAS library numpy was built with, read
    as perfbench's `environment()` reads it; "unknown" where numpy cannot
    say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def measurements(config: RunConfig, result: dict, rows: list, elapsed: float) -> dict:
    """The BENCH record of one finished pipeline run."""
    log = result["train"]["log"]
    trained = _manifest(result["train"]["out_dir"])
    train_s = trained["timings"]["train"]
    # the tokens of one epoch: every non-PAD target of the training splits
    epoch_tokens = sum(c["train_targets"] for c in trained["counts"].values())
    extracted = _manifest(result["extract"]["out_dir"])
    occurrences = sum(c["occurrences"] for c in extracted["counts"].values())
    decoded = sum(c["decoded"] for c in extracted["counts"].values())
    localize_s = sum(v for k, v in extracted["timings"].items() if k.startswith("localize:"))
    induced = _manifest(result["induce"]["out_dir"])
    pairs = sum(c["pairs"] for c in induced["counts"].values())
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "seed": config.seed,
        "config_hash": config.config_hash(),
        "total_s": round(elapsed, 3),
        "stage_s": _manifest(result["out_dir"])["timings"],
        "train": {
            "epochs_run": log.epochs_run,
            "best_epoch": log.best_epoch,
            "s_per_epoch": train_s / log.epochs_run,
            "tokens_per_s": epoch_tokens * log.epochs_run / train_s,
        },
        "extract": {
            "method": result["extract"]["method"],
            "occurrences": occurrences,
            "decoded": decoded,
            "occurrences_per_s": occurrences / localize_s,
        },
        "induce": {
            "pairs": pairs,
            "pairs_per_s": pairs / induced["timings"]["rank"],
        },
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "methods": {r["method"]: {"mrr": r["mrr"], "p1": r["p1"]} for r in rows},
        "environment": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "blas": blas_library(),
            # null: unset, so the BLAS library picks its own thread count
            "blas_threads": int(blas_threads) if blas_threads else None,
        },
    }


def summarize(config: RunConfig, result: dict, elapsed: float, json_path) -> None:
    """Print every method's MRR / P@K row; write the BENCH file to `json_path`
    when one is given."""
    report = json.loads((result["induce"]["out_dir"] / "report.json").read_text())
    rows = [r for r in report["reports"] if r["pos"] == "all"]
    print(f"\nbenchmark finished in {elapsed / 60:.1f} min (seed {config.seed})")
    print(f"{'method':12s} {'n':>4s} {'MRR':>7s} {'P@1':>7s} {'P@5':>7s} "
          f"{'P@10':>7s} {'P@20':>7s}")
    for r in rows:
        print(f"{r['method']:12s} {r['n']:4d} {r['mrr']:7.3f} {r['p1']:7.1f} "
              f"{r['p5']:7.1f} {r['p10']:7.1f} {r['p20']:7.1f}")
    print(f"\nfull reports: {result['induce']['out_dir']}")
    if json_path:
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json.dumps(measurements(config, result, rows, elapsed),
                                        indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"measurements: {json_path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=Path("runs/benchmark"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--json", type=Path, default=None,
                        help="write the run's measurements to this file")
    args = parser.parse_args()

    try:  # the config, exit codes and error line of `lexipivot pipeline`
        config = resolve_config(args)
        start = time.time()
        result = run_pipeline(config, config.out_dir)
        summarize(config, result, time.time() - start, args.json)
    except HANDLED_ERRORS as exc:
        return report_error(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
