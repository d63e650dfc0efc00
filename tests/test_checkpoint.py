import json
import struct

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


def tiny_model(seed=0, dtype=np.float32):
    train, _ = synth_dataset(train_size=4, dev_size=0, seed=0)
    vocab = build_vocab(vocab_corpus(train, ["person", "organization"]), max_size=300)
    config = ModelConfig()
    return Model.fresh(config, vocab, seed=seed, dtype=dtype), train


def rewrite_header(path, edit):
    """Apply ``edit`` to a checkpoint's parsed JSON header; payload untouched."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8:8 + hlen])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:4] + struct.pack("<I", len(new)) + new + blob[8 + hlen:])


class TestCheckpoint:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_bit_exact(self, tmp_path, dtype):
        model, _ = tiny_model(dtype=dtype)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, seeds=[0])
        loaded, seeds = load_checkpoint(path)
        assert seeds == [0]
        assert sorted(loaded.params) == sorted(model.params)
        for name, p in model.params.items():
            assert loaded.params[name].data.dtype == dtype
            assert np.array_equal(loaded.params[name].data, p.data)

    def test_float32_header_names_no_dtype(self, tmp_path):
        # a header without a dtype is float32, so float32 files keep the
        # bytes they had before the dtype was recorded
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)

        def state_dtype(header):
            assert "dtype" not in header
            header["dtype"] = "<f4"

        rewrite_header(path, state_dtype)
        loaded, _ = load_checkpoint(path)
        assert all(p.data.dtype == np.float32 for p in loaded.params.values())

    def test_config_and_vocab_survive(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.vocab.id_to_token == model.vocab.id_to_token

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_identical_scores_after_roundtrip(self, tmp_path, dtype):
        model, train = tiny_model(dtype=dtype)
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

    def test_truncated_preamble_rejected(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes()[:6])  # inside the header length
        with pytest.raises(DataError, match="truncated header length"):
            load_checkpoint(path)

    def test_corrupt_header_rejected(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[:8] + b"{" * 16 + blob[24:])
        with pytest.raises(DataError, match="not valid JSON"):
            load_checkpoint(path)

    def test_header_missing_key_rejected(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        rewrite_header(path, lambda header: header.pop("vocab"))
        with pytest.raises(DataError, match="malformed header.*vocab"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[2.5], [-1, 64]])
    def test_bad_shape_rejected(self, tmp_path, shape):
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        rewrite_header(path, lambda header: header["params"][0].update(shape=shape))
        with pytest.raises(DataError, match="non-negative ints"):
            load_checkpoint(path)

    def test_huge_shape_rejected(self, tmp_path):
        # 4 * 2**62 bytes overflows any read size; the declared payload is
        # compared with the bytes left in the file before anything is read
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        rewrite_header(path, lambda header: header["params"][0].update(shape=[2**62]))
        with pytest.raises(DataError, match="truncated payload"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["config"].update(k="3"), "k must be int"),
        (lambda h: h["config"]["encoder"].update(dropout=True), "dropout must be float"),
        (lambda h: h["config"].update(span_cap=4), "expected the keys"),
        (lambda h: h["config"].pop("k"), "expected the keys"),
        (lambda h: h["config"]["encoder"].pop("depth"), "expected the keys"),
        (lambda h: h["config"]["encoder"].update(heads=0), "heads 0"),
        (lambda h: h["vocab"]["tokens"].remove("[ENT]"), "include"),
        (lambda h: h["vocab"]["tokens"].append("[SEP]"), "distinct"),
        (lambda h: h["vocab"]["tokens"].append(7), "strings"),
        (lambda h: h["params"].remove({"name": "head.span.w1", "shape": [128, 64]}),
         "'head.span.w1' is missing"),
        (lambda h: h["config"]["encoder"].update(depth=3), "'encoder.layer2.ln1.g' is missing"),
        (lambda h: h["config"]["encoder"].update(depth=10**9), "encoder depth"),
        (lambda h: h["params"][-1].update(shape=[64, 1]), r"has shape \[64, 1\]"),
        (lambda h: h["params"].append({"name": "head.extra", "shape": [0]}),
         "'head.extra' is not in the config"),
        (lambda h: h["params"].append({"name": "head.span.w1", "shape": [0]}), "listed twice"),
        (lambda h: h.update(dtype="<f2"), "unsupported parameter dtype '<f2'"),
        (lambda h: h.update(dtype=["<f4"]), "unsupported parameter dtype"),
        (lambda h: h.update(dtype="<f8"), "truncated payload"),
    ])
    def test_header_checked_against_its_config(self, tmp_path, edit, message):
        # config values typed as config files are, the vocab's specials, and
        # parameter names and shapes against the config's shape table
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        rewrite_header(path, edit)
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)

    def test_config_values_that_shape_no_parameter_load(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        rewrite_header(path, lambda h: h["config"].update(k=3, max_types=5))
        config = load_checkpoint(path)[0].config
        assert (config.k, config.max_types) == (3, 5)

    def test_nan_weight_rejected(self, tmp_path):
        model, _ = tiny_model()
        first = sorted(model.params)[0]
        model.params[first].data.reshape(-1)[0] = np.nan
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        with pytest.raises(DataError, match=f"non-finite value in {first!r}"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(DataError, match="trailing bytes"):
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
        ('{"num_words": 2, "k": 2, "types": ["a"], "spans": [[0, 0], [0, true], [true, true]], '
         '"probs": [0.5, 0.5, 0.5]}', "integer"),
        ('{"num_words": 1, "k": 1, "types": ["a"], "spans": [[0, 0], [0]], "probs": [0.5]}',
         ""),
        ('{"num_words": 3.7, "k": 1, "types": ["a"], "spans": [[0, 0]], "probs": [0.5]}',
         "JSON integers"),
        ('{"num_words": true, "k": 1, "types": ["a"], "spans": [[0, 0]], "probs": [0.5]}',
         "JSON integers"),
        ('{"num_words": 1, "k": 1.0, "types": ["a"], "spans": [[0, 0]], "probs": [0.5]}',
         "JSON integers"),
        ('{"num_words": 1, "k": 1, "types": ["a"], "spans": [[0, 0]], "probs": ["0.5"]}',
         "could not convert probability"),
        ('{"num_words": 1, "k": 1, "types": ["a"], "spans": [[0, 0]], "probs": [0.5], '
         '"logits": [NaN]}', "could not convert logit"),
        ('{"num_words": 1, "k": 1, "types": ["a"], "spans": [[0, 0]], "probs": [0.5], '
         '"logits": [true]}', "could not convert logit"),
        ('{"num_words": 1, "k": 1, "types": ["a"], "spans": [[0, 0]], "probs": [0.5], '
         '"logits": [-Infinity]}', "could not convert logit"),
        ('{"num_words": 1, "k": 1, "types": [1, "a"], "spans": [[0, 0]], "probs": [0.5, 0.5]}',
         "entity type 1 is not a non-empty string"),
        ('{"num_words": 1, "k": 1, "types": "ab", "spans": [[0, 0]], "probs": [0.5, 0.5]}',
         "types must be a list"),
        ('{"num_words": 1, "k": 1, "types": ["a", "a"], "spans": [[0, 0]], "probs": [0.5, 0.5]}',
         "types must be distinct"),
        ('{"num_words": 1, "k": 1, "types": [""], "spans": [[0, 0]], "probs": [0.5]}',
         "entity type '' is not a non-empty string"),
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

    @pytest.mark.parametrize("record, message", [
        ('{"ner": [[0, "x", "person"]]}', "JSON integers"),
        ('{"ner": [[0.9, 1.7, "person"]]}', "JSON integers"),
        ('{"ner": [[true, true, "person"]]}', "JSON integers"),
        ('{"ner": [[0, 1, "person", "high"]]}', "could not convert"),
        ('{"ner": [[0, 1, "person", NaN]]}', "could not convert score"),
        ('{"ner": [[0, 1, "person", true]]}', "could not convert score"),
        ('{"ner": [[0, 1, "person", 1e999]]}', "could not convert score"),
        ('{"ner": [[0, 1, "person", 1' + '0' * 5000 + ']]}', "invalid JSON"),
        ('{"ner": [[0, null, "person"]]}', "int"),
        ('{"ner": [5]}', "malformed ner entry"),
        ('{"ner": [[0, 1]]}', "malformed ner entry"),
        ('{"ner": 5}', "list"),
        ('{"ner": [[0, 0, null]]}', "entity type None is not a non-empty string"),
        ('{"ner": [[0, 0, 3]]}', "entity type 3"),
        ('{"ner": [[0, 0, ""]]}', "entity type ''"),
        ('[1, 2]', "object"),
    ])
    def test_malformed_record_reports_line(self, tmp_path, record, message):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"ner": []}\n' + record + "\n")
        with pytest.raises(DataError, match=f"pred.jsonl:2: .*{message}"):
            load_mentions(path)
