"""The benchmark's workloads: one user-facing stage each.

A workload prepares its inputs once per set-up (`setup`), runs the timed
stage through the public stage functions of `lexipivot.pipeline` (`run`),
and then, outside the timed region, checks the outputs and derives its
figures (`inspect`). Stage functions are looked up on the pipeline module
at call time, so the traced run sees its wrappers.

Every input comes from the seeded synthetic corpus generator; the seed is
the only thing a run varies.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lexipivot import pipeline
from lexipivot.caption import MultiLingualModel, split_by_scene
from lexipivot.config import INDUCTION_METHODS, RunConfig, config_from_dict
from lexipivot.localization import read_word_features
from lexipivot.seeding import derive_seed

# corpus and training overrides per workload and scale; "tiny" is the
# self-test size
SCALES = {
    "full": {
        "train": {"corpus": {}, "epochs": 1},
        "extract": {"corpus": {"images_per_language": 250}, "epochs": 1},
        "induce": {"corpus": {"concepts": 400, "images_per_language": 500,
                              "min_count": 1}, "epochs": 1},
    },
    "tiny": {
        "train": {"corpus": {"concepts": 8, "images_per_language": 40}, "epochs": 1},
        "extract": {"corpus": {"concepts": 8, "images_per_language": 30}, "epochs": 1},
        "induce": {"corpus": {"concepts": 20, "images_per_language": 60,
                              "min_count": 2}, "epochs": 1},
    },
}


@dataclass
class Inspection:
    """What one operation did, measured outside the timed region."""

    items: float            # work units of the stage's core section
    core_s: float           # the core section's time, from the stage manifests
    digest: str             # of the outputs that must repeat for a seed
    problems: list[str] = field(default_factory=list)
    figures: dict[str, tuple[float, str]] = field(default_factory=dict)


def run_config(seed: int, corpus: dict, epochs: int, method: str = "probe") -> RunConfig:
    # patience == epochs, so early stopping cannot cut a run short
    return config_from_dict({
        "seed": seed,
        "threads": 1,
        "corpus": corpus,
        "training": {"max_epochs": epochs, "patience": epochs},
        "extraction": {"method": method},
    })


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(path.name.encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def stage_timings(out_dir) -> dict[str, float]:
    return json.loads((Path(out_dir) / "manifest.json").read_text("utf-8"))["timings"]


def report_figures(reports) -> tuple[dict, list[str]]:
    """Quality guards from the `pos == "all"` report rows."""
    rows = {r.method: r for r in reports if r.pos == "all"}
    problems = [f"method {m} not reported" for m in INDUCTION_METHODS if m not in rows]
    for r in rows.values():
        if not 0.0 <= r.mrr <= 1.0:
            problems.append(f"{r.method}: MRR {r.mrr} outside [0, 1]")
        if any(not 0.0 <= p <= 1.0 for p in r.p_at.values()):
            problems.append(f"{r.method}: P@K outside [0, 1]")
    figures = {}
    if "fused" in rows and "visual" in rows:
        figures = {"mrr_fused": (rows["fused"].mrr, "MRR"),
                   "mrr_visual": (rows["visual"].mrr, "MRR"),
                   "p1_fused": (100.0 * rows["fused"].p_at[1], "%")}
    return figures, problems


def check_tables(paths) -> list[str]:
    problems = []
    for path in paths:
        try:
            _, _, entries = read_word_features(path)
        except Exception as exc:  # any reader failure is a failed check
            problems.append(f"{Path(path).name}: does not read back ({exc})")
            continue
        if not entries:
            problems.append(f"{Path(path).name}: empty table")
        if any(not np.all(np.isfinite(rows)) for _, rows in entries.values()):
            problems.append(f"{Path(path).name}: non-finite features")
    return problems


class Workload:
    name = ""
    method = "probe"      # extraction method of the run config

    def __init__(self, seed: int, scale: str, work_dir):
        self.spec = SCALES[scale][self.name]
        self.work = Path(work_dir)
        self.config = run_config(seed, self.spec["corpus"], self.spec["epochs"],
                                 self.method)
        self.corpus_dir = self.work / "corpus"

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, out_dir):
        raise NotImplementedError

    def inspect(self, out_dir, result) -> Inspection:
        raise NotImplementedError

    def _train_checkpoint(self) -> Path:
        """Generate the corpus and train a brief checkpoint on it."""
        pipeline.stage_gen_corpus(self.config, self.corpus_dir)
        return pipeline.stage_train(self.config, self.work / "train",
                                    self.corpus_dir)["checkpoint"]


class TrainWorkload(Workload):
    """The train stage for a fixed number of epochs on the default corpus."""

    name = "train"

    def setup(self) -> None:
        pipeline.stage_gen_corpus(self.config, self.corpus_dir)
        loaded = pipeline.load_corpus(self.config, self.corpus_dir)
        split_seed = derive_seed(self.config.seed, "split")
        self.tokens_per_epoch = 0
        for lang in loaded.languages:
            train_split, _ = split_by_scene(loaded.examples[lang],
                                            self.config.training.val_fraction,
                                            split_seed, lang)
            self.tokens_per_epoch += sum(len(ex.tokens) - 1 for ex in train_split)

    def run(self, out_dir):
        return pipeline.stage_train(self.config, out_dir, self.corpus_dir)

    def inspect(self, out_dir, result) -> Inspection:
        log, epochs = result["log"], self.config.training.max_epochs
        problems = []
        if log.epochs_run != epochs:
            problems.append(f"ran {log.epochs_run} epochs, configured {epochs}")
        if not all(np.isfinite(r.train_loss) and np.isfinite(r.val_loss)
                   for r in log.rows):
            problems.append("non-finite loss")
        prefix = Path(result["checkpoint"])
        try:
            loaded, _ = MultiLingualModel.load_checkpoint(prefix)
        except Exception as exc:  # any loader failure is a failed check
            problems.append(f"checkpoint does not load back ({exc})")
        else:
            trained = dict(result["model"].params.items())
            reloaded = dict(loaded.params.items())
            if trained.keys() != reloaded.keys() or any(
                    not np.array_equal(p.data, trained[name].data)
                    for name, p in reloaded.items()):
                problems.append("checkpoint does not load back to the trained weights")
        core_s = stage_timings(out_dir)["train"]
        tokens = self.tokens_per_epoch * log.epochs_run
        return Inspection(
            items=tokens, core_s=core_s, problems=problems,
            digest=digest_files([prefix.with_suffix(".lxpv"),
                                 prefix.with_suffix(".json")]),
            figures={"train_tokens_per_s": (tokens / core_s, "tokens/s"),
                     "val_loss": (log.best_val_loss, "nats"),
                     "epochs_run": (log.epochs_run, "count")})


class ExtractWorkload(Workload):
    """The extract stage, once per localization method, on a brief checkpoint."""

    name = "extract"
    methods = ("probe", "attention")

    def __init__(self, seed: int, scale: str, work_dir):
        super().__init__(seed, scale, work_dir)
        self.method_configs = {m: run_config(seed, self.spec["corpus"],
                                             self.spec["epochs"], m)
                               for m in self.methods}

    def setup(self) -> None:
        self.checkpoint = self._train_checkpoint()
        loaded = pipeline.load_corpus(self.config, self.corpus_dir)
        self.occurrences = sum(len(ex.tokens) - 2 for lang in loaded.languages
                               for ex in loaded.examples[lang])

    def run(self, out_dir):
        for method in self.methods:
            pipeline.stage_extract(self.method_configs[method], Path(out_dir) / method,
                                   self.checkpoint, self.corpus_dir)

    def inspect(self, out_dir, result) -> Inspection:
        out_dir = Path(out_dir)
        tables = sorted(out_dir.glob("*/*.lxwf"))
        problems = check_tables(tables)
        expected = 3 * len(self.config.corpus.languages) * len(self.methods)
        if len(tables) != expected:
            problems.append(f"expected {expected} tables, found {len(tables)}")
        figures, core_s = {}, 0.0
        for method in self.methods:
            timings = stage_timings(out_dir / method)
            localize_s = sum(v for k, v in timings.items() if k.startswith("localize:"))
            core_s += localize_s
            figures[f"{method}_occurrences_per_s"] = (self.occurrences / localize_s,
                                                      "occurrences/s")
        quality = pipeline.stage_induce(self.method_configs["probe"], out_dir / "induction",
                                        out_dir / "probe", self.corpus_dir / "lexicon.tsv")
        quality_figures, quality_problems = report_figures(quality["reports"])
        figures.update(quality_figures)
        return Inspection(items=self.occurrences * len(self.methods), core_s=core_s,
                          problems=problems + quality_problems,
                          digest=digest_files(tables), figures=figures)


class InduceWorkload(Workload):
    """The induce stage on tables from a large-vocabulary corpus."""

    name = "induce"
    method = "attention"  # the cheaper way to make the tables

    def setup(self) -> None:
        checkpoint = self._train_checkpoint()
        self.features_dir = self.work / "features"
        pipeline.stage_extract(self.config, self.features_dir, checkpoint,
                               self.corpus_dir)

    def run(self, out_dir):
        return pipeline.stage_induce(self.config, out_dir, self.features_dir,
                                     self.corpus_dir / "lexicon.tsv")

    def inspect(self, out_dir, result) -> Inspection:
        pairs = sum(len(r.items) for rankings in result["methods"].values()
                    for r in rankings.values())
        figures, problems = report_figures(result["reports"])
        core_s = stage_timings(out_dir)["rank"]
        figures["induce_pairs_per_s"] = (pairs / core_s, "pairs/s")
        out_dir = Path(out_dir)
        return Inspection(items=pairs, core_s=core_s, problems=problems,
                          digest=digest_files([out_dir / "rankings.tsv",
                                               out_dir / "report.csv"]),
                          figures=figures)


WORKLOADS = {w.name: w for w in (TrainWorkload, ExtractWorkload, InduceWorkload)}


def fresh_dir(path) -> Path:
    path = Path(path)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
