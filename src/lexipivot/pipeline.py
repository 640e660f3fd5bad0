"""Stage orchestration shared by the CLI subcommands.

Every stage writes into its own directory: the produced artifacts, then
the resolved config echo and a manifest with input digests, timings and
the output file list. A stage creates the directory when it first writes
to it, so a stage that fails before then leaves nothing behind. Reports,
rankings, and checkpoints are byte-deterministic given (config, seed);
manifests carry timings and are not part of that guarantee.
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
    METHODS,
    UNRANKED,
    MethodScores,
    TranslationRanking,
    build_table,
    collect_global_feature_sets,
    evaluate,
    gold_index,
    gold_ranks,
    linguistic_vectors,
    pos_breakdown,
    ranking_heads,
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
    return Path(out_dir), RunManifest(command=command, config_hash=config.config_hash(),
                                      seed=config.seed)


def _finish(config: RunConfig, manifest: RunManifest, out_dir: Path) -> None:
    """The config echo and the manifest, once the stage's outputs exist."""
    config.echo(out_dir)
    manifest.write(out_dir)


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
        out_dir.mkdir(parents=True, exist_ok=True)
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
    _finish(config, manifest, out_dir)
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
    grid: tuple[int, int]           # (K regions, D features) of both languages' grids


def load_corpus(config: RunConfig, corpus_dir, manifest: RunManifest | None = None
                ) -> LoadedCorpus:
    """The corpus files of both languages (not the lexicon), each recorded
    as an input of `manifest` when one is given. Each language keeps its
    region block as `read_features` returns it, each caption its image's row
    in it. An image id in both features files, or grids of two shapes
    (K regions x D features), are a FormatError."""
    corpus_dir = Path(corpus_dir)
    languages = tuple(config.corpus.languages)
    first_path = corpus_file(corpus_dir, languages[0], "features")
    seen: set[int] = set()
    regions, examples, vocabs = {}, {}, {}
    for lang in languages:
        features_path = corpus_file(corpus_dir, lang, "features")
        image_ids, regions[lang] = read_features(features_path)
        (k0, d0), (k, d) = regions[languages[0]].shape[1:], regions[lang].shape[1:]
        if (k, d) != (k0, d0):
            raise FormatError(f"{first_path} holds grids of {k0} regions x {d0} features, "
                              f"but {features_path} holds {k} x {d}; both languages' "
                              f"grids must have one shape")
        row_of = {image_id: row for row, image_id in enumerate(image_ids)}
        shared = min(seen & row_of.keys(), default=None)
        if shared is not None:
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
                                        vocab)
        vocabs[lang] = vocab
        if manifest is not None:
            for kind in ("features", "captions", "vocab"):
                manifest.add_input(corpus_file(corpus_dir, lang, kind))
    return LoadedCorpus(languages=languages, regions=regions, examples=examples,
                        vocabs=vocabs, grid=regions[languages[0]].shape[1:])


# ---------------------------------------------------------------------------
# training stage
# ---------------------------------------------------------------------------


def build_model_from_config(config: RunConfig, loaded: LoadedCorpus) -> MultiLingualModel:
    """A fresh model of the config's sizes for the grids and vocabularies of
    `loaded`."""
    num_regions, feature_dim = loaded.grid
    dims = ModelDims(feature_dim=feature_dim, embed_dim=config.model.embed_dim,
                     attn_dim=config.model.attn_dim, num_regions=num_regions)
    vocab_sizes = {lang: loaded.vocabs[lang].size for lang in loaded.languages}
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

    model = build_model_from_config(config, loaded)
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
        out_dir.mkdir(parents=True, exist_ok=True)
        prefix = out_dir / "checkpoint"
        model.save_checkpoint(prefix, extra={
            "best_epoch": result.best_epoch,
            "best_val_loss": result.best_val_loss,
        })
        log_path = out_dir / "log.csv"
        write_training_log(log_path, result.rows)
        for p in (prefix.with_suffix(".lxpv"), prefix.with_suffix(".json"), log_path):
            manifest.add_output(p)
    _finish(config, manifest, out_dir)
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
    if (model.dims.num_regions, model.dims.feature_dim) != loaded.grid:
        num_regions, feature_dim = loaded.grid
        raise ConfigError(
            f"checkpoint {checkpoint} takes {model.dims.num_regions} regions per image of "
            f"feature dim {model.dims.feature_dim}, but "
            f"{corpus_file(corpus_dir, loaded.languages[0], 'features')} holds "
            f"{num_regions} regions of feature dim {feature_dim}")

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
            out_dir.mkdir(parents=True, exist_ok=True)
            visual_entries = {}
            for index in sorted(sets):
                feats = sets[index].astype(np.float64)
                visual_entries[vocab.word(index)] = (len(feats), feats.mean(axis=0, keepdims=True))
            visual_path = table_file(out_dir, lang, f"visual-{method}")
            write_word_features(visual_path, lang, visual_entries, aggregated=True)

            ling = linguistic_vectors(model, lang, vocab)
            ling_entries = {w: (vocab.counts.get(w, 0), row) for w, row in ling.items()}
            ling_path = table_file(out_dir, lang, "linguistic")
            write_word_features(ling_path, lang, ling_entries, aggregated=True)

            global_sets = collect_global_feature_sets(examples, images, vocab, config.seed)
            del images  # one language's encoded images at a time
            global_entries = {w: (len(rows), rows) for w, rows in global_sets.items()}
            global_path = table_file(out_dir, lang, "global")
            write_word_features(global_path, lang, global_entries, aggregated=False)
            for p in (visual_path, ling_path, global_path):
                manifest.add_output(p)
    _finish(config, manifest, out_dir)
    return {"out_dir": out_dir, "method": method}


# ---------------------------------------------------------------------------
# induction + evaluation stage
# ---------------------------------------------------------------------------


def _load_tables(features_dir, languages, method: str):
    """Each language's `build_table` from its three tables. Linguistic and
    visual tables must be aggregated and global ones must not. Both
    languages' tables of one kind must hold rows of one width, unless one
    holds no rows at all."""
    tables, widths = {}, {}
    for lang in languages:
        rows = {}
        for kind in ("linguistic", f"visual-{method}", "global"):
            path = table_file(features_dir, lang, kind)
            language, aggregated, entries = read_word_features(path)
            if language != lang:
                raise FormatError(f"{path}: the table's language {language!r:.40} "
                                  f"differs from {lang!r} of its file name")
            if aggregated != (kind != "global"):
                raise FormatError(f"{path}: the table's aggregated flag is {aggregated}, "
                                  f"but a {kind} table's must be {not aggregated}")
            rows[kind] = {w: word_rows for w, (_, word_rows) in entries.items()}
            width = next((r.shape[1] for r in rows[kind].values() if len(r)), 0)
            if width:   # a table without rows fits any width
                first_path, first_width = widths.setdefault(kind, (path, width))
                if width != first_width:
                    raise FormatError(f"{path} holds rows {width} wide, but {first_path} "
                                      f"holds rows {first_width} wide; both languages' "
                                      f"{kind} tables must have one width")
        tables[lang] = build_table(lang, rows["linguistic"], rows[f"visual-{method}"],
                                   rows["global"])
    return tables


def score_methods(source, target) -> dict[str, MethodScores]:
    """Every method of `INDUCTION_METHODS`, each source word of table
    `source` scored against every target word of table `target` as one
    [S, T] matrix, by the method's entry of `METHODS`.

    Fused sums the linguistic and visual matrices already held. One
    `ranking_heads` pass per matrix selects every row's first places. A
    method that can score no source word is left without a matrix. A
    source or target table without words is an EmptyResultError.
    """
    for table in (source, target):
        if not table.words:
            raise EmptyResultError(
                f"the tables of {table.language_id!r:.40} hold no words, so no word of "
                f"{source.language_id!r:.40} can be ranked against {target.language_id!r:.40}")
    scored = {}
    for method in INDUCTION_METHODS:
        score, scorable_rows, bottom_rows = METHODS[method]
        scorable = scorable_rows(source)
        fallbacks = np.full(len(source.words), np.count_nonzero(bottom_rows(target)))
        held = ()
        if method == "fused":
            fallbacks[~source.has_visual] = len(target.words)
            held = scored["linguistic"].scores, scored["visual"].scores
        scores = heads = None
        if scorable.any():   # else the table's rows for this method may be 0 wide
            scores = score(source, target, *held)
            heads = ranking_heads(scores)
        scored[method] = MethodScores(scorable, fallbacks, scores, heads)
    return scored


# the names that perfbench wraps, one per method, each bound to the record
linguistic_rank = visual_rank = fused_rank = cnn_mean_rank = cnn_avgmax_rank = TranslationRanking


def compute_rankings(source_words: list[str],
                     scored: dict[str, MethodScores]) -> dict[str, dict]:
    """{method: {source word: ranking}} for every method of `scored`: one
    `<method>_rank` call per source word the method can score, with its
    row and fallback count; the rest are skipped."""
    methods = {}
    for method, s in scored.items():
        # looked up at call time, so that wrappers set on this module apply
        ranker, fallbacks = globals()[f"{method}_rank"], s.fallbacks.tolist()
        methods[method] = {source_words[i]: ranker(s.scores[i], fallbacks[i])
                           for i in np.flatnonzero(s.scorable).tolist()}
    return methods


def ranking_counts(scored: dict[str, MethodScores], n_targets: int,
                   ranks: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per method: rankings produced, (source, target) pairs scored, source
    words left unranked, fallback pairs, and the two kinds of lexicon word
    that `skipped` adds up, from the method's gold-rank array."""
    counts = {}
    for method, s in sorted(scored.items()):
        rankings = int(np.count_nonzero(s.scorable))
        counts[method] = {
            "rankings": rankings, "pairs": rankings * n_targets,
            "skipped_sources": len(s.scorable) - rankings,
            "fallback_pairs": int(s.fallbacks[s.scorable].sum()),
            "unranked_lexicon_words": int(np.count_nonzero(ranks[method] == UNRANKED)),
            "gold_outside_targets": int(np.count_nonzero(ranks[method] == GOLD_OUTSIDE))}
    return counts


def reports_for(scored: dict[str, MethodScores], ranks: dict[str, np.ndarray],
                gold) -> list:
    """The "all" and per-POS report rows of every method with an evaluable
    word, from its gold-rank array and the fallbacks of its source rows."""
    reports = []
    for method in sorted(scored):
        # a word the source table lacks (row -1) reads the appended 0
        fallbacks = np.append(scored[method].fallbacks, 0)[gold.source_rows]
        try:
            reports.append(evaluate(ranks[method], fallbacks, method=method))
        except EmptyResultError:
            continue
        reports.extend(pos_breakdown(ranks[method], fallbacks, gold, method=method))
    if not reports:
        raise EmptyResultError("no evaluable source words for any method")
    return reports


def stage_induce(config: RunConfig, out_dir, features_dir, lexicon_path) -> dict:
    """Rank the words of the first corpus language against the second's.
    Every output after ranking reads only the `MethodScores` and one
    `gold_ranks` array per method, counted over its score matrix against
    one index of the lexicon."""
    out_dir, manifest = _prepare(config, out_dir, "induce")
    source, target = config.corpus.languages
    with manifest.timed("load"):
        lexicon = read_lexicon(lexicon_path, source, target)
        manifest.add_input(lexicon_path)
        tables = _load_tables(features_dir, (source, target), config.extraction.method)
    src, tgt = tables[source], tables[target]
    with manifest.timed("rank"):
        scored = score_methods(src, tgt)
        methods = compute_rankings(src.words, scored)
    with manifest.timed("evaluate"):
        gold = gold_index(lexicon, src.rows, tgt.rows)
        ranks = {method: gold_ranks(s, gold) for method, s in scored.items()}
        reports = reports_for(scored, ranks, gold)
    manifest.counts = ranking_counts(scored, len(tgt.words), ranks)
    with manifest.timed("write"):
        out_dir.mkdir(parents=True, exist_ok=True)
        rankings_path, ranks_path = out_dir / "rankings.tsv", out_dir / "ranks.tsv"
        write_rankings(rankings_path, scored, src.words, tgt.words)
        write_ranks(ranks_path, ranks, gold)
        csv_path, json_path = out_dir / "report.csv", out_dir / "report.json"
        write_report_csv(csv_path, reports)
        write_report_json(json_path, reports)
        for p in (rankings_path, ranks_path, csv_path, json_path):
            manifest.add_output(p)
    _finish(config, manifest, out_dir)
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
    _finish(config, manifest, out_dir)
    return {
        "out_dir": out_dir,
        "corpus": gen,
        "train": trained,
        "extract": extracted,
        "induce": induced,
    }
