import json
import struct

import numpy as np
import pytest

from lexipivot.corpus import (
    CorpusConfig,
    GroundTruthLexicon,
    generate_corpus,
    read_captions,
    read_features,
    read_lexicon,
    read_vocabulary,
    write_captions,
    write_features,
    write_lexicon,
    write_vocabulary,
)
from lexipivot.caption import split_by_scene
from lexipivot.caption.training import pad_captions
from lexipivot.config import RunConfig
from lexipivot.corpus.vocab import BOS, EOS, RESERVED
from lexipivot.errors import FormatError, InputError
from lexipivot.pipeline import corpus_file, load_corpus, stage_gen_corpus

from helpers import edit_header, pack_container


def small_config():
    return CorpusConfig(concepts=3, attributes=2, grid_side=2, images_per_language=10,
                        captions_per_image=2, feature_dim=8, min_count=1)


def small_bundle():
    return generate_corpus(small_config(), seed=21)


def all_images(bundle):
    """The image ids and region grids of both languages, in scene order."""
    languages = bundle.config.languages
    return ([s.scene_id for lang in languages for s in bundle.scenes[lang]],
            np.concatenate([bundle.regions[lang] for lang in languages]))


class TestFeaturesFile:
    def test_round_trip(self, tmp_path):
        bundle = small_bundle()
        path = tmp_path / "f.lxpf"
        image_ids, grids = all_images(bundle)
        write_features(path, image_ids, grids)
        ids, regions = read_features(path)
        assert ids == image_ids
        assert regions.shape == (len(ids), 4, 8) and regions.dtype == np.float32
        for want, grid in zip(grids, regions):
            assert np.array_equal(want, grid)

    def test_header_fields(self, tmp_path):
        bundle = small_bundle()
        path = tmp_path / "f.lxpf"
        image_ids, grids = all_images(bundle)
        write_features(path, image_ids, grids)
        blob = path.read_bytes()
        magic, version, length = struct.unpack_from("<4sII", blob)
        assert (magic, version) == (b"LXPF", 2)
        header = json.loads(blob[12:12 + length])
        assert header == {"meta": {"image_ids": image_ids},
                          "arrays": [["regions", "<f4", [len(image_ids), 4, 8]]]}

    @pytest.mark.parametrize("image_ids,regions,match", [
        ([3, 17, 3], np.zeros((3, 4, 8)), "duplicate image id 3"),
        ([3, 17], np.zeros((3, 4, 8)), "2 ids and a block of shape"),
        ([3, 17], np.zeros((2, 8)), r"block of shape \(2, 8\)"),
    ], ids=["duplicate id", "more grids than ids", "2-d block"])
    def test_bad_block_rejected_before_the_file_is_opened(self, tmp_path, image_ids, regions,
                                                           match):
        path = tmp_path / "bad.lxpf"
        with pytest.raises(InputError, match=match):
            write_features(path, image_ids, regions)
        assert not path.exists()

    def test_inconsistent_payload_size_rejected_at_read(self, tmp_path):
        # a 4-region header followed by a 2-region payload
        path = tmp_path / "bad.lxpf"
        path.write_bytes(pack_container(
            b"LXPF", {"meta": {"image_ids": [0]}, "arrays": [["regions", "<f4", [1, 4, 8]]]},
            np.zeros(2 * 8, dtype="<f4").tobytes()))
        with pytest.raises(FormatError, match="past the end"):
            read_features(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h["meta"].update(image_ids=[0]),
        lambda h: h["meta"].update(image_ids=[0, "1"]),
        lambda h: h["meta"].pop("image_ids"),
        lambda h: h["arrays"][0].__setitem__(2, [2, 32]),
        lambda h: h["arrays"][0].__setitem__(0, "grids"),
    ], ids=["fewer ids than grids", "string id", "no ids", "2-d regions", "renamed array"])
    def test_header_that_does_not_describe_the_grids(self, tmp_path, edit):
        path = tmp_path / "f.lxpf"
        write_features(path, [3, 17], np.stack([np.zeros((4, 8)), np.ones((4, 8))]))
        edit_header(path, edit)
        with pytest.raises(FormatError, match="image ids"):
            read_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lxpf"
        path.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_features(path)

    def test_duplicate_image_id(self, tmp_path):
        path = tmp_path / "dup.lxpf"
        path.write_bytes(pack_container(
            b"LXPF", {"meta": {"image_ids": [7, 7]}, "arrays": [["regions", "<f4", [2, 2, 2]]]},
            np.zeros(8, dtype="<f4").tobytes()))
        with pytest.raises(FormatError, match="duplicate image id 7"):
            read_features(path)


class TestCaptionsFile:
    def test_round_trip(self, tmp_path):
        bundle = small_bundle()
        lang = bundle.config.languages[0]
        path = tmp_path / "caps.tsv"
        write_captions(path, bundle.captions[lang])
        loaded = read_captions(path, language=lang)
        assert loaded == bundle.captions[lang]

    def test_lowercase_whitespace_tokenization(self, tmp_path):
        path = tmp_path / "caps.tsv"
        path.write_text("3\tde\tEin  GROSSER Hund\n", encoding="utf-8")
        (cap,) = read_captions(path, "de")
        assert cap.words == ("ein", "grosser", "hund")

    def test_bad_column_count_names_line(self, tmp_path):
        path = tmp_path / "caps.tsv"
        path.write_text("1\tde\tok caption\nbroken line\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":2:"):
            read_captions(path, "de")

    def test_non_integer_id(self, tmp_path):
        path = tmp_path / "caps.tsv"
        path.write_text("abc\tde\twords here\n", encoding="utf-8")
        with pytest.raises(FormatError, match="abc"):
            read_captions(path, "de")

    def test_record_of_other_language_names_line(self, tmp_path):
        path = tmp_path / "caps.tsv"
        path.write_text("1\tde\tein hund\n2\ten\ta dog\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"caps\.tsv:2: .*'en'.*'de'"):
            read_captions(path, "de")

    def test_known_token_counts_fixture(self, tmp_path):
        # three images, hand-written captions with 3, 5, and 2 tokens
        feats = np.stack([np.full((2, 8), float(i), dtype=np.float32) for i in (10, 11, 12)])
        fpath = tmp_path / "f.lxpf"
        write_features(fpath, [10, 11, 12], feats)
        cpath = tmp_path / "caps.tsv"
        cpath.write_text(
            "10\ten\ta red dog\n"
            "11\ten\tthe dog sits very still\n"
            "12\ten\tblue cat\n",
            encoding="utf-8")
        features, captions = dict(zip(*read_features(fpath))), read_captions(cpath, "en")
        assert [len(c.words) for c in captions] == [3, 5, 2]
        assert sorted(features) == [10, 11, 12]

    def test_unknown_image_id_rejected(self, tmp_path):
        config = RunConfig(corpus=small_config())
        stage_gen_corpus(config, tmp_path)
        cpath = corpus_file(tmp_path, "la", "captions")
        with open(cpath, "a", encoding="utf-8") as fh:
            fh.write("999999\tla\tmissing image\n")
        with pytest.raises(FormatError, match=r"la\.captions\.tsv.*999999"):
            load_corpus(config, tmp_path)

    def test_long_caption_is_indexed_whole(self, tmp_path):
        """A hand-written caption of 20 words keeps every word: a batch is as
        wide as its widest caption, and no cap cuts it."""
        config = RunConfig(corpus=small_config())
        stage_gen_corpus(config, tmp_path)
        cpath = corpus_file(tmp_path, "la", "captions")
        first = read_captions(cpath, "la")[0]
        words = (first.words * 5)[:20]
        with open(cpath, "a", encoding="utf-8") as fh:
            fh.write(f"{first.image_id}\tla\t{' '.join(words)}\n")
        loaded = load_corpus(config, tmp_path)
        tokens = loaded.examples["la"][-1].tokens
        assert len(tokens) == 22
        assert tokens == (BOS, *loaded.vocabs["la"].encode(words), EOS)

    def test_generated_corpus_full_round_trip(self, tmp_path):
        bundle = small_bundle()
        lang = bundle.config.languages[0]
        fpath, cpath = tmp_path / "f.lxpf", tmp_path / "c.tsv"
        lang_feats = {s.scene_id: grid for s, grid in zip(bundle.scenes[lang],
                                                            bundle.regions[lang])}
        write_features(fpath, [s.scene_id for s in bundle.scenes[lang]], bundle.regions[lang])
        write_captions(cpath, bundle.captions[lang])
        features, captions = dict(zip(*read_features(fpath))), read_captions(cpath, lang)
        assert captions == bundle.captions[lang]
        for sid in lang_feats:
            assert np.array_equal(features[sid], lang_feats[sid])


class TestImageRows:
    """Each caption finds its grid by row, in features files whose ids descend."""

    @pytest.fixture()
    def corpus(self, tmp_path):
        """(config, corpus dir, {image id: grid}, the loaded corpus)."""
        config = RunConfig(corpus=small_config())
        stage_gen_corpus(config, tmp_path)
        grids = {}
        for lang in config.corpus.languages:
            path = corpus_file(tmp_path, lang, "features")
            ids, regions = read_features(path)
            grids.update(zip(ids, regions))
            write_features(path, ids[::-1], regions[::-1])
        return config, tmp_path, grids, load_corpus(config, tmp_path)

    @staticmethod
    def written(corpus_dir, lang):
        """The image ids of a language's features file and its captions."""
        ids, _ = read_features(corpus_file(corpus_dir, lang, "features"))
        return ids, read_captions(corpus_file(corpus_dir, lang, "captions"), lang)

    def test_each_row_holds_its_caption_image(self, corpus):
        _, corpus_dir, _, loaded = corpus
        for lang in loaded.languages:
            ids, captions = self.written(corpus_dir, lang)
            assert ids == sorted(ids, reverse=True)
            assert [ids[ex.image_row] for ex in loaded.examples[lang]] == \
                [cap.image_id for cap in captions]

    def test_padded_batch_gathers_each_caption_grid(self, corpus):
        _, corpus_dir, grids, loaded = corpus
        for lang in loaded.languages:
            _, captions = self.written(corpus_dir, lang)
            padded = pad_captions(lang, loaded.examples[lang], loaded.regions[lang])
            picks = np.array([5, 0, 3, len(captions) - 1])
            _, batch_grids = padded.batch(picks)
            for grid, i in zip(batch_grids, picks):
                assert np.array_equal(grid, grids[captions[i].image_id])

    def test_split_keeps_the_captions_of_an_image_on_one_side(self, corpus):
        _, corpus_dir, _, loaded = corpus
        for lang in loaded.languages:
            ids, _ = self.written(corpus_dir, lang)
            train, val = split_by_scene(loaded.examples[lang], 0.25, 3, lang)
            train_ids = {ids[ex.image_row] for ex in train}
            val_ids = {ids[ex.image_row] for ex in val}
            assert train_ids and val_ids and not train_ids & val_ids
            assert len(train) + len(val) == len(loaded.examples[lang])


class TestLexiconFile:
    def test_round_trip_with_pos(self, tmp_path):
        lex = GroundTruthLexicon("a", "b")
        lex.add("hund", "dog", "noun")
        lex.add("hund", "hound", "noun")
        lex.add("schnell", "fast")
        path = tmp_path / "lex.tsv"
        write_lexicon(path, lex)
        loaded = read_lexicon(path, "a", "b")
        assert loaded.entries == lex.entries
        assert loaded.pos == lex.pos

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("only_one_field\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":1:"):
            read_lexicon(path)

    @pytest.mark.parametrize("line, field", [("\thund\tnoun", "source"), ("a\t\tnoun", "target"),
                                             ("a\thund\t", "POS"), ("a\t", "target")])
    def test_empty_field_names_its_line(self, tmp_path, line, field):
        path = tmp_path / "lex.tsv"
        path.write_text(f"b\tkatze\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"lex\.tsv:2: empty {field} field"):
            read_lexicon(path)

    def test_word_with_two_tags_names_its_line_and_both_tags(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tb\tnoun\na\tc\tadj\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"lex\.tsv:2: source word 'a' is tagged 'adj', "
                                              r"but an earlier line tags it 'noun'"):
            read_lexicon(path)

    @pytest.mark.parametrize("text", ["a\tb\tnoun\na\tc\n", "a\tc\na\tb\tnoun\n"])
    def test_untagged_line_fits_a_tagged_one(self, tmp_path, text):
        path = tmp_path / "lex.tsv"
        path.write_text(text, encoding="utf-8")
        loaded = read_lexicon(path)
        assert loaded.entries == {"a": {"b", "c"}} and loaded.pos == {"a": "noun"}


class TestVocabularyFile:
    def test_round_trip(self, tmp_path):
        bundle = small_bundle()
        lang = bundle.config.languages[0]
        path = tmp_path / "vocab.tsv"
        write_vocabulary(path, bundle.vocabs[lang])
        loaded = read_vocabulary(path, lang)
        assert loaded.index_to_word == bundle.vocabs[lang].index_to_word
        assert loaded.counts == bundle.vocabs[lang].counts

    def test_out_of_order_index(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("0\t<pad>\t0\n2\t<s>\t0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="out of order"):
            read_vocabulary(path, "xx")

    @pytest.mark.parametrize("row, message", [("4\thund\t-7", "negative count -7"),
                                              ("4\t\t3", "empty word")])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "vocab.tsv"
        reserved = "".join(f"{i}\t{w}\t0\n" for i, w in enumerate(RESERVED))
        path.write_text(f"{reserved}{row}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"vocab\.tsv:5: {message}"):
            read_vocabulary(path, "xx")

    def test_word_listed_twice_names_its_second_line(self, tmp_path):
        """A repeated word would shadow the first one's index, and the word
        it replaced would vanish from every stage."""
        config = RunConfig(corpus=small_config())
        stage_gen_corpus(config, tmp_path)
        path = corpus_file(tmp_path, "la", "vocab")
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        fifth = lines[4].split("\t")[1]
        index, _, count = lines[5].split("\t")
        lines[5] = "\t".join([index, fifth, count])
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(FormatError, match=rf"la\.vocab\.tsv:6: word '{fifth}' is "
                                              rf"already listed at index 4"):
            load_corpus(config, tmp_path)
