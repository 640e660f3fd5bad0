"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: each public layer
function is replaced, at the name its caller looks it up by, with a wrapper
that records (name, start, end, parent). Nothing under `src/` changes, and
an untraced operation runs the program's own functions unwrapped.

A span name is "<layer>.<function>" or "<layer>.<function>.<variant>"; the
layer is the part before the first dot. Counters are recorded at the same
boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("numerics", "caption", "corpus", "localization", "induction", "pipeline")
STAGES = ("gen_corpus", "train", "extract", "induce")

# (layer.function, variant) pairs that get time, self time and call metrics
TIMED = (
    ("numerics.backward", None),
    ("numerics.lstm_step", None),
    ("numerics.cross_entropy_rows", None),
    ("numerics.adam_update", None),
    ("numerics.clip_global_norm", None),
    ("caption.train", None),
    ("caption.sequence_loss", None),
    ("caption.attend", None),
    ("caption.step", None),
    ("caption.encode", None),
    ("localization.collect_word_features", "probe"),
    ("localization.collect_word_features", "attention"),
    ("localization.read_word_features", None),
    ("induction.rank", "linguistic"),
    ("induction.rank", "visual"),
    ("induction.rank", "fused"),
    ("induction.rank", "cnn_mean"),
    ("induction.rank", "cnn_avgmax"),
    ("induction.collect_global_feature_sets", None),
    ("induction.evaluate", None),
    ("induction.write_rankings", None),
    ("corpus.generate_corpus", None),
    ("corpus.read_features", None),
    ("corpus.write_features", None),
)

COUNTERS = ("caption.train_tokens", "localization.occurrences", "localization.kept",
            "induction.pairs", "induction.fallback_pairs", "corpus.bytes_written")


def timed_metric(base: str, kind: str, variant: str | None) -> str:
    name = f"{base}_{kind}"
    return f"{name}.{variant}" if variant else name


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    names = []
    for base, variant in TIMED:
        names.append((timed_metric(base, "s", variant), "s"))
        names.append((timed_metric(base, "self_s", variant), "s"))
        names.append((timed_metric(base, "calls", variant), "count"))
    names += [("caption.train_tokens", "tokens"), ("localization.occurrences", "count"),
              ("localization.kept_ratio", "ratio"), ("induction.pairs", "count"),
              ("induction.fallback_ratio", "ratio"), ("corpus.bytes_written", "bytes")]
    names += [(f"pipeline.stage_self_s.{stage}", "s") for stage in STAGES]
    for phase in ("setup", "op"):
        names += [(f"{phase}.self_s.{layer}", "s") for layer in LAYERS]
    names += [("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
              ("trace.overhead_s", "s"), ("trace.accounted_ratio", "ratio"),
              ("trace.spans_per_op", "count")]
    return names


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[int, dict[str, float]] = {}  # root index -> counters
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        if not self._stack:
            self.counts[index] = defaultdict(float)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, key: str, amount: float) -> None:
        if self._stack:
            self.counts[self._stack[0]][key] += amount

    def wrap(self, owner, attr: str, name, counter=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        `name` is a span name or a callable (args, kwargs) -> span name;
        `counter(tracer, args, kwargs, result)` records counts after the call.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name):
                result = original(*args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        install_layer_wrappers(self)
        try:
            yield
        finally:
            self.unwrap_all()

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    # -- analysis ---------------------------------------------------------

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[3] == -1 and s[0] == name]

    def tree_totals(self, root: int) -> dict[str, float]:
        """Inclusive time, self time and calls per span name under one root,
        plus self time per layer, the root's wall time and its counters."""
        # spans are stored in start order, so a root's tree runs up to the
        # next root
        stop = next((i for i in range(root + 1, len(self.spans))
                     if self.spans[i][3] == -1), len(self.spans))
        members = range(root, stop)
        children_time: dict[int, float] = defaultdict(float)
        for i in members[1:]:
            _, start, end, parent = self.spans[i]
            children_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i in members:
            name, start, end, _ = self.spans[i]
            self_time = (end - start) - children_time[i]
            totals[f"{name}|s"] += end - start
            totals[f"{name}|self_s"] += self_time
            totals[f"{name}|calls"] += 1
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                totals[f"layer|{layer}"] += self_time
        totals["spans"] = len(members)
        totals["wall"] = self.spans[root][2] - self.spans[root][1]
        for key, value in self.counts.get(root, {}).items():
            totals[f"count|{key}"] = value
        return totals


def per_layer_metrics(tracer: Tracer, untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer figures: one traced set-up pass plus the median traced
    operation (median taken per metric over the traced operations)."""
    setup = tracer.tree_totals(tracer.roots("bench.setup")[0])
    ops = [tracer.tree_totals(r) for r in tracer.roots("bench.op")]

    def op_median(key: str) -> float:
        return statistics.median(o.get(key, 0.0) for o in ops)

    def both(key: str) -> float:
        return setup.get(key, 0.0) + op_median(key)

    out: dict[str, float] = {}
    for base, variant in TIMED:
        span = f"{base}.{variant}" if variant else base
        for kind in ("s", "self_s", "calls"):
            out[timed_metric(base, kind, variant)] = both(f"{span}|{kind}")
    out["caption.train_tokens"] = both("count|caption.train_tokens")
    occurrences = both("count|localization.occurrences")
    out["localization.occurrences"] = occurrences
    out["localization.kept_ratio"] = (both("count|localization.kept") / occurrences
                                      if occurrences else 0.0)
    pairs = both("count|induction.pairs")
    out["induction.pairs"] = pairs
    out["induction.fallback_ratio"] = (both("count|induction.fallback_pairs") / pairs
                                       if pairs else 0.0)
    out["corpus.bytes_written"] = both("count|corpus.bytes_written")
    for stage in STAGES:
        out[f"pipeline.stage_self_s.{stage}"] = both(f"pipeline.stage.{stage}|self_s")
    for layer in LAYERS:
        out[f"setup.self_s.{layer}"] = setup.get(f"layer|{layer}", 0.0)
        out[f"op.self_s.{layer}"] = op_median(f"layer|{layer}")
    traced_wall = op_median("wall")
    untraced_wall = statistics.median(untraced_walls)
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.traced_wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.accounted_ratio"] = statistics.median(
        sum(o.get(f"layer|{layer}", 0.0) for layer in LAYERS) / o["wall"] for o in ops)
    out["trace.spans_per_op"] = op_median("spans")
    return out


# ---------------------------------------------------------------------------
# the wrap map: each layer function at the name its caller looks it up by
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def _count_train_tokens(tracer, args, kwargs, result):
    from lexipivot.numerics import grad_enabled

    if grad_enabled():            # validation batches run under no_grad
        tracer.count("caption.train_tokens", result[1])


def _count_occurrences(tracer, args, kwargs, result):
    examples = _arg(args, kwargs, 1, "examples")
    tracer.count("localization.occurrences",
                 sum(len(ex.tokens) - 2 for ex in examples))
    tracer.count("localization.kept", sum(len(v) for v in result.values()))


def _count_pairs(tracer, args, kwargs, result):
    tracer.count("induction.pairs", len(result.items))
    tracer.count("induction.fallback_pairs", result.fallback_pairs)


def _count_bytes(tracer, args, kwargs, result):
    tracer.count("corpus.bytes_written", os.path.getsize(args[0]))


def install_layer_wrappers(tracer: Tracer) -> None:
    from lexipivot import induction, pipeline
    from lexipivot.caption import model as caption_model
    from lexipivot.caption import training
    from lexipivot.caption.model import MultiLingualModel
    from lexipivot.numerics import Tensor

    wrap = tracer.wrap
    # numerics: the caption modules import these names directly
    wrap(Tensor, "backward", "numerics.backward")
    wrap(caption_model, "lstm_step", "numerics.lstm_step")
    wrap(caption_model, "cross_entropy_rows", "numerics.cross_entropy_rows")
    wrap(training, "adam_update", "numerics.adam_update")
    wrap(training, "clip_global_norm", "numerics.clip_global_norm")
    # caption
    wrap(pipeline, "train", "caption.train")
    wrap(pipeline, "split_by_scene", "caption.split_by_scene")
    wrap(MultiLingualModel, "sequence_loss", "caption.sequence_loss",
         _count_train_tokens)
    wrap(MultiLingualModel, "attend", "caption.attend")
    wrap(MultiLingualModel, "step", "caption.step")
    wrap(MultiLingualModel, "encode", "caption.encode")
    wrap(MultiLingualModel, "save_checkpoint", "caption.save_checkpoint")
    # localization
    wrap(pipeline, "collect_word_features",
         lambda a, k: "localization.collect_word_features."
         + _arg(a, k, 4, "method", "probe"), _count_occurrences)
    wrap(pipeline, "read_word_features", "localization.read_word_features")
    wrap(pipeline, "write_word_features", "localization.write_word_features")
    # induction
    for method in ("linguistic", "visual", "fused", "cnn_mean", "cnn_avgmax"):
        wrap(pipeline, f"{method}_rank", f"induction.rank.{method}", _count_pairs)
    wrap(pipeline, "collect_global_feature_sets", "induction.collect_global_feature_sets")
    wrap(pipeline, "linguistic_vectors", "induction.linguistic_vectors")
    wrap(pipeline, "build_table", "induction.build_table")
    wrap(pipeline, "evaluate", "induction.evaluate")
    wrap(induction, "evaluate", "induction.evaluate")   # looked up by pos_breakdown
    wrap(pipeline, "pos_breakdown", "induction.pos_breakdown")
    wrap(pipeline, "write_rankings", "induction.write_rankings")
    wrap(pipeline, "write_report_csv", "induction.write_report_csv")
    wrap(pipeline, "write_report_json", "induction.write_report_json")
    # corpus
    wrap(pipeline, "generate_corpus", "corpus.generate_corpus")
    wrap(pipeline, "read_features", "corpus.read_features")
    wrap(pipeline, "read_captions", "corpus.read_captions")
    wrap(pipeline, "read_vocabulary", "corpus.read_vocabulary")
    wrap(pipeline, "read_lexicon", "corpus.read_lexicon")
    wrap(pipeline, "index_captions", "corpus.index_captions")
    for writer in ("write_features", "write_captions", "write_vocabulary",
                   "write_lexicon"):
        wrap(pipeline, writer, f"corpus.{writer}", _count_bytes)
    # pipeline stages, looked up on the module by the benchmark
    for stage in STAGES:
        wrap(pipeline, f"stage_{stage}", f"pipeline.stage.{stage}")
