import numpy as np
import pytest

from promptner.checkpoint import (load_checkpoint, load_mentions,
                                  load_score_tables, save_checkpoint,
                                  save_mentions, save_score_tables)
from promptner.data import synth_dataset, vocab_corpus
from promptner.decoder import EntityMention
from promptner.errors import DataError
from promptner.matcher import enumerate_spans, make_score_table
from promptner.model import Model, ModelConfig
from promptner.tokenizer import build_vocab


def tiny_model(seed=0):
    train, _ = synth_dataset(train_size=4, dev_size=0, seed=0)
    vocab = build_vocab(vocab_corpus(train, ["person", "organization"]), max_size=300)
    config = ModelConfig()
    return Model.fresh(config, vocab, seed=seed), train


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, seeds=[0])
        loaded, seeds = load_checkpoint(path)
        assert seeds == [0]
        assert sorted(loaded.params) == sorted(model.params)
        for name, p in model.params.items():
            assert loaded.params[name].data.dtype == np.float32
            assert np.array_equal(loaded.params[name].data, p.data)

    def test_config_and_vocab_survive(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.vocab.id_to_token == model.vocab.id_to_token

    def test_identical_scores_after_roundtrip(self, tmp_path):
        model, train = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        for ex in train:
            a = model.score_table(ex.words, ["person", "organization"])
            b = loaded.score_table(ex.words, ["person", "organization"])
            assert np.array_equal(a.logits, b.logits)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(DataError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)


class TestScoreTables:
    def _tables(self):
        rng = np.random.default_rng(0)
        spans = enumerate_spans(4, 3)
        logits = rng.normal(size=(len(spans), 2))
        return [make_score_table(spans, ["a", "b"], logits, num_words=4, k=3)]

    def test_roundtrip(self, tmp_path):
        tables = self._tables()
        path = tmp_path / "scores.jsonl"
        save_score_tables(tables, path)
        loaded = load_score_tables(path)
        assert len(loaded) == 1
        assert loaded[0].types == ["a", "b"]
        assert np.allclose(loaded[0].probs, tables[0].probs)
        assert np.allclose(loaded[0].logits, tables[0].logits)

    def test_wrong_enumeration_rejected(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"num_words": 2, "k": 1, "types": ["a"], '
                        '"spans": [[0, 1], [1, 1]], "probs": [0.5, 0.5]}\n')
        with pytest.raises(DataError, match="enumeration"):
            load_score_tables(path)

    def test_out_of_range_probs_rejected(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"num_words": 1, "k": 1, "types": ["a"], '
                        '"spans": [[0, 0]], "probs": [1.5]}\n')
        with pytest.raises(DataError, match="probabilities"):
            load_score_tables(path)

    @pytest.mark.parametrize("record, message", [
        ('{"k": 1, "types": ["a"], "spans": [[0, 0]], "probs": [0.5]}', "num_words"),
        ('{"num_words": 1, "types": ["a"], "spans": [[0, 0]], "probs": [0.5]}', "k"),
        ('{"num_words": 1, "k": 1, "spans": [[0, 0]], "probs": [0.5]}', "types"),
        ('{"num_words": 1, "k": 1, "types": ["a"], "probs": [0.5]}', "spans"),
        ('{"num_words": 1, "k": 1, "types": ["a"], "spans": [[0, "x"]], "probs": [0.5]}',
         "integer"),
        ('{"num_words": 1, "k": 1, "types": ["a"], "spans": [[0, 0.5]], "probs": [0.5]}',
         "integer"),
        ('{"num_words": 1, "k": 1, "types": ["a"], "spans": [[0, 0], [0]], "probs": [0.5]}',
         ""),
        ('[1, 2]', "object"),
    ])
    def test_malformed_record_reports_line(self, tmp_path, record, message):
        path = tmp_path / "scores.jsonl"
        path.write_text("\n" + record + "\n")
        with pytest.raises(DataError, match=f"scores.jsonl:2: .*{message}"):
            load_score_tables(path)

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"num_words": 1, "k": 1, "types": ["a", "b"], '
                        '"spans": [[0, 0]], "probs": [0.5]}\n')
        with pytest.raises(DataError, match="length"):
            load_score_tables(path)


class TestMentionsIO:
    def test_roundtrip_with_scores(self, tmp_path):
        mentions = [[EntityMention(0, 1, "person", 0.9)], []]
        path = tmp_path / "pred.jsonl"
        save_mentions(mentions, path, words_lists=[["a", "b"], ["c"]])
        loaded = load_mentions(path)
        assert loaded[0][0].key() == (0, 1, "person")
        assert loaded[0][0].score == 0.9
        assert loaded[1] == []

    def test_reads_dataset_files_without_scores(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text('{"tokenized_text": ["a"], "ner": [[0, 0, "t"]]}\n')
        loaded = load_mentions(path)
        assert loaded[0][0].score == 1.0
