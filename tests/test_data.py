import json

import pytest

from promptner.data import (LEXICONS, SynthSpec, load_dataset,
                            save_dataset, synth_dataset, vocab_corpus)
from promptner.errors import ConfigError, DataError


class TestSynthDataset:
    def test_sizes_and_determinism(self):
        train, dev = synth_dataset(train_size=50, dev_size=20, seed=0)
        assert len(train) == 50 and len(dev) == 20
        train2, dev2 = synth_dataset(train_size=50, dev_size=20, seed=0)
        assert [ex.words for ex in train] == [ex.words for ex in train2]
        assert [[m.key() for m in ex.gold] for ex in dev] == \
               [[m.key() for m in ex.gold] for ex in dev2]

    def test_seed_changes_output(self):
        a, _ = synth_dataset(train_size=20, seed=0)
        b, _ = synth_dataset(train_size=20, seed=1)
        assert [ex.words for ex in a] != [ex.words for ex in b]

    def test_every_type_featured_round_robin(self):
        spec = SynthSpec()
        train, _ = synth_dataset(spec, train_size=50, dev_size=0, seed=0)
        for i, ex in enumerate(train):
            featured = spec.types[i % len(spec.types)]
            assert ex.gold[0].type == featured

    def test_gold_spans_match_surfaces(self):
        train, _ = synth_dataset(train_size=30, seed=3)
        for ex in train:
            for m in ex.gold:
                surface = " ".join(ex.words[m.start:m.end + 1])
                assert surface in LEXICONS[m.type]

    def test_spans_within_width_cap(self):
        spec = SynthSpec()
        train, dev = synth_dataset(spec, train_size=50, dev_size=20, seed=0)
        for ex in train + dev:
            for m in ex.gold:
                assert m.end - m.start + 1 <= spec.max_span_width

    def test_too_wide_lexicon_rejected(self):
        spec = SynthSpec(max_span_width=1)
        with pytest.raises(ConfigError):
            synth_dataset(spec, train_size=5)

    @pytest.mark.parametrize("sizes", [(-3, 20), (50, -1)])
    def test_negative_size_rejected(self, sizes):
        with pytest.raises(ConfigError, match="train_size and dev_size >= 0"):
            synth_dataset(train_size=sizes[0], dev_size=sizes[1])



class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        train, _ = synth_dataset(train_size=10, seed=0)
        path = tmp_path / "data.jsonl"
        save_dataset(train, path)
        loaded = load_dataset(path)
        assert [ex.words for ex in loaded] == [ex.words for ex in train]
        assert [[m.key() for m in ex.gold] for ex in loaded] == \
               [[m.key() for m in ex.gold] for ex in train]

    def test_record_shape(self, tmp_path):
        train, _ = synth_dataset(train_size=1, seed=0)
        path = tmp_path / "data.jsonl"
        save_dataset(train, path)
        rec = json.loads(path.read_text().splitlines()[0])
        assert set(rec) == {"tokenized_text", "ner"}
        assert all(len(item) == 3 for item in rec["ner"])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"tokenized_text": ["hi"], "ner": []}\n\n')
        assert len(load_dataset(path)) == 1

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokenized_text": ["hi"], "ner": []}\n{oops\n')
        with pytest.raises(DataError, match=":2:"):
            load_dataset(path)

    def test_out_of_bounds_span_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokenized_text": ["hi"], "ner": [[0, 3, "t"]]}\n')
        with pytest.raises(DataError, match=":1:"):
            load_dataset(path)

    def test_missing_text_key(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ner": []}\n')
        with pytest.raises(DataError):
            load_dataset(path)

    def test_malformed_ner_entry(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokenized_text": ["hi"], "ner": [[0, 0]]}\n')
        with pytest.raises(DataError):
            load_dataset(path)

    @pytest.mark.parametrize("record, message", [
        ('{"tokenized_text": ["a", "b"], "ner": [[0, "x", "t"]]}', "JSON integers"),
        ('{"tokenized_text": ["a", "b"], "ner": [[0.9, 1.7, "t"]]}', "JSON integers"),
        ('{"tokenized_text": ["a", "b"], "ner": [[true, true, "t"]]}', "JSON integers"),
        ('{"tokenized_text": ["a", "b"], "ner": [5]}', "malformed ner entry"),
        ('{"tokenized_text": ["a", "b"], "ner": [[0, 1, "t", 0.5, "junk", 7]]}',
         "malformed ner entry"),
        ('{"tokenized_text": ["a", "b"], "ner": 7}', "ner must be a list"),
        ('{"tokenized_text": ["a", "b"], "ner": [[0, 1, "t", NaN]]}', "could not convert score"),
        ('{"tokenized_text": "ab", "ner": []}', "list of strings"),
        ('{"tokenized_text": ["a", 1], "ner": []}', "list of strings"),
        ('{"tokenized_text": ["a", "b"], "ner": [[1, 0, "t"]]}', r"span \(1,0\) out of bounds"),
        ('["a", "b"]', "a record must be a JSON object"),
        ('{"tokenized_text": ["it", "", "rained"], "ner": []}', "tokenized_text word 1 is empty"),
        ('{"tokenized_text": ["a", "b"], "ner": [[0, 0, null]]}', "entity type None"),
        ('{"tokenized_text": ["a", "b"], "ner": [[0, 0, ["t"]]]}', "entity type"),
    ])
    def test_malformed_record_reports_line(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokenized_text": ["hi"], "ner": []}\n' + record + "\n")
        with pytest.raises(DataError, match=f"bad.jsonl:2: .*{message}"):
            load_dataset(path)


class TestVocabCorpus:
    def test_includes_sentences_and_type_phrases(self):
        train, _ = synth_dataset(train_size=3, seed=0)
        corpus = vocab_corpus(train, ["award name"])
        assert list(train[0].words) in corpus
        assert ["award", "name"] in corpus
