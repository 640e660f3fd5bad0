"""Stage orchestration shared by the CLI subcommands.

Every stage writes into its own directory: the produced artifacts, the
fully resolved config echo, and a manifest with input digests, wall-clock
timings, and the output file list. Reports, rankings, and checkpoints are
byte-deterministic given (config, seed); manifests carry timings and are
not part of that guarantee.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .caption import (
    ModelDims,
    MultiLingualModel,
    split_by_scene,
    train,
)
from .config import INDUCTION_METHODS, RunConfig
from .corpus import (
    generate_corpus,
    index_captions,
    read_captions,
    read_features,
    read_lexicon,
    read_vocabulary,
    write_captions,
    write_features,
    write_lexicon,
    write_vocabulary,
)
from .errors import ConfigError, EmptyResultError, FormatError
from .induction import (
    GOLD_OUTSIDE,
    UNRANKED,
    build_table,
    cnn_avgmax_rank,
    cnn_avgmax_scores,
    cnn_mean_rank,
    cnn_mean_scores,
    collect_global_feature_sets,
    evaluate,
    fallback_counts,
    fused_rank,
    fused_scores,
    gold_ranks,
    linguistic_rank,
    linguistic_scores,
    linguistic_vectors,
    pos_breakdown,
    ranking_heads,
    visual_rank,
    visual_scores,
    write_rankings,
    write_ranks,
    write_report_csv,
    write_report_json,
)
from .localization import (
    collect_word_features,
    encode_images,
    read_word_features,
    write_word_features,
)
from .manifest import RunManifest
from .seeding import derive_seed

log = logging.getLogger("lexipivot")


def _prepare(config: RunConfig, out_dir, command: str):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config.echo(out_dir)
    return out_dir, RunManifest(command=command, config_hash=config.config_hash(),
                                seed=config.seed)


# ---------------------------------------------------------------------------
# corpus stage
# ---------------------------------------------------------------------------


def corpus_file(corpus_dir, language: str, kind: str) -> Path:
    suffix = {"features": "features.lxpf", "captions": "captions.tsv",
              "vocab": "vocab.tsv"}[kind]
    return Path(corpus_dir) / f"{language}.{suffix}"


def stage_gen_corpus(config: RunConfig, out_dir) -> dict:
    out_dir, manifest = _prepare(config, out_dir, "gen-corpus")
    with manifest.timed("generate"):
        bundle = generate_corpus(config.corpus, config.seed)
    with manifest.timed("write"):
        for lang in config.corpus.languages:
            ids = [scene.scene_id for scene in bundle.scenes[lang]]
            write_features(corpus_file(out_dir, lang, "features"), ids, bundle.regions[lang])
            write_captions(corpus_file(out_dir, lang, "captions"), bundle.captions[lang])
            write_vocabulary(corpus_file(out_dir, lang, "vocab"), bundle.vocabs[lang])
            for kind in ("features", "captions", "vocab"):
                manifest.add_output(corpus_file(out_dir, lang, kind))
        lexicon_path = out_dir / "lexicon.tsv"
        write_lexicon(lexicon_path, bundle.lexicon)
        manifest.add_output(lexicon_path)
    manifest.write(out_dir)
    log.info("corpus written to %s (%d + %d captions)", out_dir,
             len(bundle.captions[config.corpus.languages[0]]),
             len(bundle.captions[config.corpus.languages[1]]))
    return {"out_dir": out_dir}


@dataclass
class LoadedCorpus:
    languages: tuple[str, str]
    regions: dict[str, np.ndarray]  # language -> region grids [N,K,D], as read
    examples: dict[str, list]       # each example's `image_row` indexes its regions
    vocabs: dict


def load_corpus(config: RunConfig, corpus_dir, manifest: RunManifest | None = None
                ) -> LoadedCorpus:
    """The corpus files of both languages (not the lexicon), each recorded
    as an input of `manifest` when one is given. Each language keeps its
    region block as `read_features` returns it, each caption its image's row
    in it. An image id in both features files is a FormatError; grids not
    `corpus.grid_side`² x `corpus.feature_dim` are a ConfigError."""
    corpus_dir = Path(corpus_dir)
    languages = tuple(config.corpus.languages)
    grid_side, feature_dim = config.corpus.grid_side, config.corpus.feature_dim
    seen: set[int] = set()
    regions, examples, vocabs = {}, {}, {}
    for lang in languages:
        features_path = corpus_file(corpus_dir, lang, "features")
        image_ids, regions[lang] = read_features(features_path)
        _, k, d = regions[lang].shape
        if k != grid_side ** 2:
            raise ConfigError(f"{features_path}: {k} regions per image, but corpus.grid_side "
                              f"{grid_side} gives {grid_side ** 2}")
        if d != feature_dim:
            raise ConfigError(f"{features_path}: region features of width {d}, but "
                              f"corpus.feature_dim is {feature_dim}")
        row_of = {image_id: row for row, image_id in enumerate(image_ids)}
        shared = min(seen & row_of.keys(), default=None)
        if shared is not None:
            first_path = corpus_file(corpus_dir, languages[0], "features")
            raise FormatError(f"image id {shared} is in both {first_path} and "
                              f"{features_path}; the languages' image ids must differ")
        seen |= row_of.keys()
        vocab = read_vocabulary(corpus_file(corpus_dir, lang, "vocab"), lang)
        captions_path = corpus_file(corpus_dir, lang, "captions")
        captions = read_captions(captions_path, lang)
        for i, cap in enumerate(captions, start=1):
            if cap.image_id not in row_of:
                raise FormatError(
                    f"{captions_path}: caption record {i} references image id "
                    f"{cap.image_id}, which is not in {features_path}")
        examples[lang] = index_captions(captions, [row_of[cap.image_id] for cap in captions],
                                        vocab, config.corpus.max_caption_len)
        vocabs[lang] = vocab
        if manifest is not None:
            for kind in ("features", "captions", "vocab"):
                manifest.add_input(corpus_file(corpus_dir, lang, kind))
    return LoadedCorpus(languages=languages, regions=regions, examples=examples,
                        vocabs=vocabs)


# ---------------------------------------------------------------------------
# training stage
# ---------------------------------------------------------------------------


def build_model_from_config(config: RunConfig, vocab_sizes: dict[str, int]) -> MultiLingualModel:
    dims = ModelDims(
        feature_dim=config.corpus.feature_dim,
        embed_dim=config.model.embed_dim,
        attn_dim=config.model.attn_dim,
        num_regions=config.corpus.grid_side ** 2,
        max_len=config.corpus.max_caption_len,
    )
    return MultiLingualModel.build(dims, vocab_sizes, seed=derive_seed(config.seed, "init"),
                                   dtype=np.float32)


def write_training_log(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "language", "train_loss", "val_loss", "grad_norm_mean",
                         "grad_norm_max", "clipped_fraction"])
        for r in rows:
            writer.writerow([r.epoch, r.language, f"{r.train_loss:.8f}", f"{r.val_loss:.8f}",
                             f"{r.grad_norm_mean:.8f}", f"{r.grad_norm_max:.8f}",
                             f"{r.clipped_fraction:.8f}"])


def stage_train(config: RunConfig, out_dir, corpus_dir) -> dict:
    out_dir, manifest = _prepare(config, out_dir, "train")
    with manifest.timed("load"):
        loaded = load_corpus(config, corpus_dir, manifest)

    model = build_model_from_config(
        config, {lang: loaded.vocabs[lang].size for lang in loaded.languages})
    data = {
        lang: split_by_scene(loaded.examples[lang], config.training.val_fraction,
                             derive_seed(config.seed, "split"), lang)
        for lang in loaded.languages
    }
    for lang, (train_split, val_split) in data.items():
        manifest.counts[lang] = {
            "train_captions": len(train_split), "val_captions": len(val_split),
            # every non-PAD target of the split, the tokens of one epoch
            "train_targets": sum(len(ex.tokens) - 1 for ex in train_split)}
    with manifest.timed("train"):
        result = train(model, data, loaded.regions, config.training, config.seed)

    with manifest.timed("write"):
        prefix = out_dir / "checkpoint"
        vocab_paths = {lang: str(corpus_file(corpus_dir, lang, "vocab"))
                       for lang in loaded.languages}
        model.save_checkpoint(prefix, extra={
            "vocab_paths": vocab_paths,
            "best_epoch": result.best_epoch,
            "best_val_loss": result.best_val_loss,
        })
        log_path = out_dir / "log.csv"
        write_training_log(log_path, result.rows)
        for p in (prefix.with_suffix(".lxpv"), prefix.with_suffix(".json"), log_path):
            manifest.add_output(p)
    manifest.write(out_dir)
    log.info("training done: best val %.4f at epoch %d (%d epochs run)",
             result.best_val_loss, result.best_epoch, result.epochs_run)
    return {"out_dir": out_dir, "model": model, "log": result,
            "checkpoint": out_dir / "checkpoint"}


# ---------------------------------------------------------------------------
# extraction stage
# ---------------------------------------------------------------------------


def table_file(features_dir, language: str, kind: str) -> Path:
    return Path(features_dir) / f"{language}.{kind}.lxwf"


def stage_extract(config: RunConfig, out_dir, checkpoint, corpus_dir) -> dict:
    out_dir, manifest = _prepare(config, out_dir, "extract")
    with manifest.timed("load"):
        loaded = load_corpus(config, corpus_dir, manifest)
        model, _ = MultiLingualModel.load_checkpoint(checkpoint)
        # the sidecar sets the dtype and dims the weights are decoded with
        for suffix in (".lxpv", ".json"):
            manifest.add_input(Path(checkpoint).with_suffix(suffix))
    if model.dims.feature_dim != config.corpus.feature_dim:
        raise ConfigError(
            f"checkpoint feature dim {model.dims.feature_dim} does not match "
            f"corpus feature dim {config.corpus.feature_dim}")

    for lang in loaded.languages:
        if lang not in model.vocab_sizes:
            raise ConfigError(f"checkpoint has no language {lang!r}")
        if model.vocab_sizes[lang] != loaded.vocabs[lang].size:
            raise ConfigError(
                f"checkpoint vocabulary of {lang!r} has {model.vocab_sizes[lang]} entries "
                f"but the corpus vocabulary has {loaded.vocabs[lang].size}")

    method = config.extraction.method
    for lang in loaded.languages:
        vocab, examples = loaded.vocabs[lang], loaded.examples[lang]
        manifest.counts[lang] = {}
        with manifest.timed(f"localize:{lang}"):
            images = encode_images(model, examples, loaded.regions[lang])
            sets = collect_word_features(model, examples, images, lang, method,
                                         counts=manifest.counts[lang])
        with manifest.timed(f"write:{lang}"):
            visual_entries = {}
            for index in sorted(sets):
                feats = sets[index].astype(np.float64)
                visual_entries[vocab.word(index)] = (len(feats), feats.mean(axis=0, keepdims=True))
            visual_path = table_file(out_dir, lang, f"visual-{method}")
            write_word_features(visual_path, lang, visual_entries, aggregated=True)

            ling = linguistic_vectors(model, lang, vocab)
            ling_entries = {w: (vocab.counts.get(w, 0), v[None]) for w, v in ling.items()}
            ling_path = table_file(out_dir, lang, "linguistic")
            write_word_features(ling_path, lang, ling_entries, aggregated=True)

            global_sets = collect_global_feature_sets(examples, images, vocab, config.seed)
            del images  # one language's encoded images at a time
            global_entries = {w: (len(rows), rows) for w, rows in global_sets.items()}
            global_path = table_file(out_dir, lang, "global")
            write_word_features(global_path, lang, global_entries, aggregated=False)
            for p in (visual_path, ling_path, global_path):
                manifest.add_output(p)
    manifest.write(out_dir)
    return {"out_dir": out_dir, "method": method}


# ---------------------------------------------------------------------------
# induction + evaluation stage
# ---------------------------------------------------------------------------


def _load_tables(features_dir, languages, method: str):
    tables = {}
    for lang in languages:
        rows = {}
        for kind in ("linguistic", f"visual-{method}", "global"):
            path = table_file(features_dir, lang, kind)
            language, aggregated, entries = read_word_features(path)
            if language != lang:
                raise FormatError(f"{path}: the table's language {language!r:.40} "
                                  f"differs from {lang!r} of its file name")
            if kind != "global" and not aggregated:
                raise ConfigError(f"{kind} table for {lang} is not aggregated")
            rows[kind] = {w: word_rows for w, (_, word_rows) in entries.items()}
        tables[lang] = build_table(
            lang, {w: word_rows[0] for w, word_rows in rows["linguistic"].items()},
            rows[f"visual-{method}"], rows["global"])
    return tables


def compute_rankings(tables, source: str, target: str) -> dict[str, dict]:
    """{method: {source word: ranking}} for every method of `INDUCTION_METHODS`.

    Each method scores every source word against every target word as one
    [S, T] matrix, and fused sums the linguistic and visual matrices already
    held. One `ranking_heads` pass per matrix selects every row's first
    places, and one `fallback_counts` pass counts its fallback pairs. Then one
    `<method>_rank` call per source word the method can score pairs its row
    with its head. The rest are skipped: visual needs a visual vector,
    cnn_mean a non-zero global set mean and cnn_avgmax a non-empty global
    set.
    """
    src, tgt = tables[source], tables[target]
    every = np.ones(len(src.words), dtype=bool)
    # looked up at call time, so that wrappers set on this module apply
    rankers = {
        "linguistic": (linguistic_scores, linguistic_rank, every),
        "visual": (visual_scores, visual_rank, src.has_visual),
        "fused": (fused_scores, fused_rank, every),
        "cnn_mean": (cnn_mean_scores, cnn_mean_rank, src.global_mean_valid),
        "cnn_avgmax": (cnn_avgmax_scores, cnn_avgmax_rank, np.diff(src.global_offsets) > 0),
    }
    matrices, methods = {}, {}
    for method in INDUCTION_METHODS:
        score, rank, scorable = rankers[method]
        methods[method] = {}
        if not scorable.any():   # the table's rows for this method may be 0 wide
            continue
        if method == "fused":
            scores = score(src, tgt, matrices.get("linguistic"), matrices.get("visual"))
        else:
            scores = matrices[method] = score(src, tgt)
        heads = ranking_heads(scores)
        fallbacks = fallback_counts(method, src, tgt).tolist()
        for i in np.flatnonzero(scorable).tolist():
            methods[method][src.words[i]] = rank(src.words[i], tgt, scores[i], heads[i],
                                                 fallbacks[i])
    return methods


def ranking_counts(methods: dict[str, dict], source_words: list[str],
                   ranks: dict[str, dict]) -> dict[str, dict]:
    """Per method: rankings produced, (source, target) pairs scored, source
    words left unranked, fallback pairs, and the two kinds of lexicon word
    that `skipped` adds up, from the method's gold-rank table."""
    return {method: {"rankings": len(rankings),
                     "pairs": sum(len(r.items) for r in rankings.values()),
                     "skipped_sources": sum(w not in rankings for w in source_words),
                     "fallback_pairs": sum(r.fallback_pairs for r in rankings.values()),
                     "unranked_lexicon_words": list(ranks[method].values()).count(UNRANKED),
                     "gold_outside_targets": list(ranks[method].values()).count(GOLD_OUTSIDE)}
            for method, rankings in sorted(methods.items())}


def reports_for(methods: dict[str, dict], ranks: dict[str, dict], lexicon) -> list:
    reports = []
    for method in sorted(methods):
        try:
            reports.append(evaluate(ranks[method], methods[method], method=method))
        except EmptyResultError:
            continue
        reports.extend(pos_breakdown(ranks[method], methods[method], lexicon, method=method))
    if not reports:
        raise EmptyResultError("no evaluable source words for any method")
    return reports


def stage_induce(config: RunConfig, out_dir, features_dir, lexicon_path) -> dict:
    """Rank the words of the first corpus language against the second's.
    Every output after ranking reads one `gold_ranks` table per method."""
    out_dir, manifest = _prepare(config, out_dir, "induce")
    source, target = config.corpus.languages
    with manifest.timed("load"):
        lexicon = read_lexicon(lexicon_path, source, target)
        manifest.add_input(lexicon_path)
        tables = _load_tables(features_dir, (source, target), config.extraction.method)
    with manifest.timed("rank"):
        methods = compute_rankings(tables, source, target)
    with manifest.timed("evaluate"):
        ranks = {method: gold_ranks(rankings, lexicon) for method, rankings in methods.items()}
        reports = reports_for(methods, ranks, lexicon)
    manifest.counts = ranking_counts(methods, tables[source].words, ranks)
    with manifest.timed("write"):
        rankings_path, ranks_path = out_dir / "rankings.tsv", out_dir / "ranks.tsv"
        write_rankings(rankings_path, methods)
        write_ranks(ranks_path, ranks, lexicon)
        csv_path, json_path = out_dir / "report.csv", out_dir / "report.json"
        write_report_csv(csv_path, reports)
        write_report_json(json_path, reports)
        for p in (rankings_path, ranks_path, csv_path, json_path):
            manifest.add_output(p)
    manifest.write(out_dir)
    return {"out_dir": out_dir, "methods": methods, "reports": reports}


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def run_pipeline(config: RunConfig, out_dir) -> dict:
    """The four stages, each reading what the one before it wrote, as the
    CLI subcommands run them."""
    out_dir, manifest = _prepare(config, out_dir, "pipeline")
    corpus_dir = out_dir / "corpus"
    with manifest.timed("gen-corpus"):
        gen = stage_gen_corpus(config, corpus_dir)
    with manifest.timed("train"):
        trained = stage_train(config, out_dir / "train", corpus_dir)
    with manifest.timed("extract"):
        extracted = stage_extract(config, out_dir / "features", trained["checkpoint"],
                                  corpus_dir)
    with manifest.timed("induce"):
        induced = stage_induce(config, out_dir / "induction", extracted["out_dir"],
                               corpus_dir / "lexicon.tsv")
    manifest.write(out_dir)
    return {
        "out_dir": out_dir,
        "corpus": gen,
        "train": trained,
        "extract": extracted,
        "induce": induced,
    }
