"""Stage-level benchmark of lexipivot.

    python3 perfbench/run.py --workload {train,extract,induce} --seed N \
        --seconds S --trace {0,1}

One run is one fresh process: it pins the BLAS thread count, sets the
workload up several times (median reported as `setup_s`), then runs the
workload's stage in a closed loop (each operation starts when the previous
one ends) for `--seconds`, checks every operation's outputs, and prints
the figures. With `--trace 1` the operations alternate between untraced
and traced, and the per-layer metrics replace the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it
report the environment and every workload figure by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench_work")      # relative to ROOT, so digests do not see it
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "items/s",
                    "peak_rss_mb": "MB"}


@dataclass
class Measurement:
    setup_s: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)      # of untraced operations
    inspections: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    tracer: object = None


def pin_threads() -> None:
    """Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "cpu_count": os.cpu_count(), "numpy": np.__version__,
            "python": platform.python_version(), "blas": vendor}


def measure(workload, seconds: float, trace: bool, after_run=None) -> Measurement:
    """Set up, then run operations until `seconds` have passed.

    `after_run(out_dir)` runs between an operation and its checks; the
    self-test uses it to corrupt an output.
    """
    # imported here, not at the top: numpy must load after pin_threads()
    from spans import Tracer
    from workloads import fresh_dir

    m = Measurement()
    if trace:
        m.tracer = Tracer()
        with m.tracer.installed(), m.tracer.span("bench.setup"):
            workload.setup()
    else:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            m.setup_s.append(time.perf_counter() - start)

    first_digest = None
    min_ops = 2 if trace else 1      # a traced run needs one untraced operation
    deadline = time.perf_counter() + seconds
    while m.attempted < min_ops or time.perf_counter() < deadline:
        traced = trace and m.attempted % 2 == 1
        m.attempted += 1
        result = None        # free the previous result outside the timed region
        out_dir = fresh_dir(workload.work / "op")
        try:
            if traced:
                with m.tracer.installed(), m.tracer.span("bench.op"):
                    result = workload.run(out_dir)
            else:
                start = time.perf_counter()
                result = workload.run(out_dir)
                m.walls.append(time.perf_counter() - start)
            if after_run is not None:
                after_run(out_dir)
            inspection = workload.inspect(out_dir, result)
        except Exception:  # an operation that raises is a failed operation
            m.failed += 1
            print(f"operation {m.attempted} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            continue
        if first_digest is None:
            first_digest = inspection.digest
        elif inspection.digest != first_digest:
            inspection.problems.append("outputs differ from the first operation's")
        if inspection.problems:
            m.failed += 1
            print(f"operation {m.attempted} failed checks: {inspection.problems}",
                  file=sys.stderr)
        m.inspections.append(inspection)
    return m


def end_to_end(m: Measurement) -> dict[str, float]:
    return {
        "setup_s": statistics.median(m.setup_s),
        "wall_s": statistics.median(m.walls),
        "items_per_s": statistics.median(i.items / i.core_s for i in m.inspections),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def figures(m: Measurement) -> dict[str, tuple[float, str]]:
    """Median of each workload figure over the checked operations."""
    units = {name: unit for i in m.inspections for name, (_, unit) in i.figures.items()}
    out = {name: (statistics.median(i.figures[name][0] for i in m.inspections
                                    if name in i.figures), unit)
           for name, unit in units.items()}
    out["failed_fraction"] = (m.failed / m.attempted, "ratio")
    out["operations"] = (m.attempted, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "extract", "induce"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lexipivot" / "pipeline.py").is_file():
        print(f"perfbench: no lexipivot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_threads()
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from spans import per_layer_metrics, per_layer_names
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale, WORK / args.workload)
    m = measure(workload, args.seconds, bool(args.trace))
    if not m.inspections:
        print("perfbench: no operation completed its checks", file=sys.stderr)
        return 1

    print("env " + json.dumps(environment(), sort_keys=True))
    for name, (value, unit) in figures(m).items():
        print(f"figure {name} = {value:.6g} {unit}")
    print(f"digest {m.inspections[0].digest}")
    if args.trace:
        m.tracer.write(workload.work / "spans.jsonl")
        values = per_layer_metrics(m.tracer, m.walls)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_names()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(m).items()}
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
