from collections import Counter

import numpy as np
import pytest

from lexipivot.caption import TrainingConfig, interleave, split_by_scene, train, training
from lexipivot.errors import NumericError

from conftest import build_model, indexed


def split_bundle(bundle, seed=3, val_fraction=0.25):
    return {
        lang: split_by_scene(indexed(bundle)[lang], val_fraction, seed, lang)
        for lang in bundle.config.languages
    }


class TestInterleave:
    def test_two_to_one_alternation(self):
        schedule = interleave({"a": 200, "b": 100})
        assert len(schedule) == 300
        assert Counter(schedule) == {"a": 200, "b": 100}
        for start in range(0, 300, 3):
            window = Counter(schedule[start:start + 3])
            assert window == {"a": 2, "b": 1}

    def test_single_language(self):
        assert interleave({"a": 4}) == ["a"] * 4

    def test_counts_always_respected(self):
        for counts in ({"a": 7, "b": 3}, {"a": 1, "b": 9}, {"a": 5, "b": 5, "c": 2}):
            schedule = interleave(counts)
            assert Counter(schedule) == counts


class TestSplit:
    def test_captions_of_one_image_stay_together(self, tiny_bundle):
        lang = tiny_bundle.config.languages[0]
        examples = indexed(tiny_bundle)[lang]
        train_ex, val_ex = split_by_scene(examples, 0.25, 1, lang)
        train_images = {e.image_row for e in train_ex}
        val_images = {e.image_row for e in val_ex}
        assert not (train_images & val_images)
        assert len(train_ex) + len(val_ex) == len(examples)

    def test_deterministic(self, tiny_bundle):
        lang = tiny_bundle.config.languages[0]
        examples = indexed(tiny_bundle)[lang]
        a = split_by_scene(examples, 0.25, 5, lang)
        b = split_by_scene(examples, 0.25, 5, lang)
        assert a == b


class TestPadCaptions:
    def test_batch_is_the_padded_slice_of_its_captions(self, tiny_bundle):
        lang = tiny_bundle.config.languages[0]
        examples = indexed(tiny_bundle)[lang]
        regions = tiny_bundle.regions[lang]
        captions = training.pad_captions(lang, examples, regions)
        picks = np.array([5, 0, 3])
        tokens, features = captions.batch(picks)
        width = max(len(examples[i].tokens) for i in picks)
        assert tokens.shape == (3, width)
        for row, grid, i in zip(tokens, features, picks):
            n = len(examples[i].tokens)
            assert tuple(row[:n]) == examples[i].tokens and not row[n:].any()  # PAD is 0
            assert np.array_equal(grid, regions[examples[i].image_row])
        # the grids are the language's block as read, not a per-caption copy
        assert captions.regions is regions
        assert len(captions.image_rows) == len(examples)


def quick_config(**kw):
    base = dict(batch_size=8, learning_rate=0.01, max_epochs=3, patience=10,
                val_fraction=0.25)
    base.update(kw)
    return TrainingConfig(**base)


class TestTrain:
    def test_single_language_degenerate(self, tiny_bundle):
        lang = tiny_bundle.config.languages[0]
        model = build_model(tiny_bundle)
        data = {lang: split_by_scene(indexed(tiny_bundle)[lang], 0.25, 3, lang)}
        log = train(model, data, tiny_bundle.regions, quick_config(), seed=4)
        languages = {r.language for r in log.rows}
        assert languages == {lang, "all"}
        assert log.epochs_run == 3

    def test_training_reduces_loss(self, tiny_bundle):
        model = build_model(tiny_bundle)
        data = split_bundle(tiny_bundle)
        log = train(model, data, tiny_bundle.regions,
                    quick_config(max_epochs=8), seed=4)
        overall = [r for r in log.rows if r.language == "all"]
        assert overall[-1].train_loss < overall[0].train_loss

    def test_deterministic_log(self, tiny_bundle):
        data = split_bundle(tiny_bundle)
        m1 = build_model(tiny_bundle, seed=9)
        m2 = build_model(tiny_bundle, seed=9)
        log1 = train(m1, data, tiny_bundle.regions, quick_config(), seed=6)
        log2 = train(m2, data, tiny_bundle.regions, quick_config(), seed=6)
        assert log1.rows == log2.rows
        for (n1, p1), (n2, p2) in zip(m1.params.items(), m2.params.items()):
            assert n1 == n2 and np.array_equal(p1.data, p2.data)

    def test_best_snapshot_restored(self, tiny_bundle):
        model = build_model(tiny_bundle)
        tensors = dict(model.params.items())
        data = split_bundle(tiny_bundle)
        log = train(model, data, tiny_bundle.regions,
                    quick_config(max_epochs=6), seed=4)
        # restored in place: every parameter is the tensor it was, still a
        # view of the store's flat buffer
        for name, p in model.params.items():
            assert p is tensors[name], name
            assert np.shares_memory(p.data, model.params.data), name
        # model must be at its best-validation parameters
        total, count = 0.0, 0
        for lang in sorted(data):
            captions = training.pad_captions(lang, data[lang][1], tiny_bundle.regions[lang])
            ce, n = training._validation_loss(model, captions, 8)
            total += ce
            count += n
        assert abs(total / count - log.best_val_loss) < 1e-9

    def test_early_stopping(self, tiny_bundle):
        model = build_model(tiny_bundle)
        data = split_bundle(tiny_bundle)
        log = train(model, data, tiny_bundle.regions,
                    quick_config(max_epochs=50, patience=2, learning_rate=0.3),
                    seed=4)
        assert log.epochs_run < 50

    def test_non_finite_loss_raises_and_names_epoch(self, tiny_bundle):
        model = build_model(tiny_bundle)
        model.params["lstm.w_ih"].data[0, 0] = np.nan
        data = split_bundle(tiny_bundle)
        with pytest.raises(NumericError, match="epoch 1"):
            train(model, data, tiny_bundle.regions, quick_config(), seed=4)


class TestTelemetry:
    def test_grad_norm_columns(self, tiny_bundle):
        data = split_bundle(tiny_bundle)
        log = train(build_model(tiny_bundle), data, tiny_bundle.regions,
                    quick_config(max_epochs=2), seed=4)
        for epoch in (1, 2):
            rows = {r.language: r for r in log.rows if r.epoch == epoch}
            for r in rows.values():
                assert 0.0 < r.grad_norm_mean <= r.grad_norm_max
                assert 0.0 <= r.clipped_fraction <= 1.0
            per_language = [r for lang, r in rows.items() if lang != "all"]
            assert rows["all"].grad_norm_max == max(r.grad_norm_max for r in per_language)

    @pytest.mark.parametrize("clip_norm,fraction", [(1e-9, 1.0), (1e9, 0.0)])
    def test_clipped_fraction(self, tiny_bundle, monkeypatch, clip_norm, fraction):
        monkeypatch.setattr(training, "CLIP_NORM", clip_norm)
        data = split_bundle(tiny_bundle)
        log = train(build_model(tiny_bundle), data, tiny_bundle.regions,
                    quick_config(max_epochs=1), seed=4)
        assert all(r.clipped_fraction == fraction for r in log.rows)

    def test_info_line_per_epoch(self, tiny_bundle, caplog):
        data = split_bundle(tiny_bundle)
        with caplog.at_level("INFO", logger="lexipivot"):
            train(build_model(tiny_bundle), data, tiny_bundle.regions,
                  quick_config(max_epochs=2), seed=4)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch")]
        assert len(lines) == 2
        assert all("s wall" in line and "tokens/s" in line for line in lines)

    def test_attention_numeric_failure_names_epoch(self, tiny_bundle):
        model = build_model(tiny_bundle)
        model.params["attn.w2"].data[0, 0] = np.nan
        with pytest.raises(NumericError,
                           match="numeric failure at epoch 1: attention scores"):
            train(model, split_bundle(tiny_bundle), tiny_bundle.regions,
                  quick_config(), seed=4)
