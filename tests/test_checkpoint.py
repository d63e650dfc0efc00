import json
import re
import struct

import numpy as np
import pytest

from promptner.checkpoint import load_checkpoint, load_mentions, save_checkpoint, save_mentions
from promptner.data import load_dataset, synth_dataset, vocab_corpus
from promptner.decoder import EntityMention
from promptner.encoder import EncoderConfig
from promptner.errors import ContractError, DataError
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
        listed = json.dumps({"name": "encoder.final_ln.b", "shape": shape})
        with pytest.raises(DataError, match=re.escape(
                f'params[0] is {listed}, the config gives '
                '{"name": "encoder.final_ln.b", "shape": [64]}')):
            load_checkpoint(path)

    def test_huge_shape_rejected(self, tmp_path, monkeypatch):
        # 4 * 2**62 bytes overflows any read size; the header's shapes are
        # compared with the config's before any payload byte is read
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        rewrite_header(path, lambda header: header["params"][0].update(shape=[2**62]))
        monkeypatch.setattr(np, "frombuffer", lambda *a, **kw: pytest.fail("payload read"))
        with pytest.raises(DataError, match=r'params\[0\] is .*"shape": \[4611686018427387904\]'):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["config"].update(k="3"), "k must be int"),
        (lambda h: h["config"]["encoder"].update(dropout=True), "dropout must be float"),
        (lambda h: h["config"].update(span_cap=4), "expected the keys"),
        (lambda h: h["config"].pop("k"), "expected the keys"),
        (lambda h: h["config"]["encoder"].pop("depth"), "expected the keys"),
        (lambda h: h["config"]["encoder"].update(heads=0), "heads must be >= 1, got 0"),
        (lambda h: h["config"]["encoder"].update(width=0), "width must be >= 1, got 0"),
        (lambda h: h.update(format_version=2), "unsupported format version 2"),
        (lambda h: h["vocab"]["tokens"].remove("[ENT]"), "include"),
        (lambda h: h["vocab"]["tokens"].append("[SEP]"), "distinct"),
        (lambda h: h["vocab"]["tokens"].append(7), "strings"),
        (lambda h: h["params"].remove({"name": "head.span.w1", "shape": [128, 64]}),
         r'params\[40\] is \{"name": "head.span.w2", .*, '
         r'the config gives \{"name": "head.span.w1", "shape": \[128, 64\]\}'),
        (lambda h: h["config"]["encoder"].update(depth=3),
         r'params\[32\] is \{"name": "encoder.pos_emb", .*, '
         r'the config gives \{"name": "encoder.layer2.bo", "shape": \[64\]\}'),
        (lambda h: h["config"]["encoder"].update(depth=10**9), "encoder depth"),
        (lambda h: h["params"][-1].update(shape=[64, 1]),
         r'params\[41\] is \{"name": "head.span.w2", "shape": \[64, 1\]\}, '
         r'the config gives \{"name": "head.span.w2", "shape": \[64, 64\]\}'),
        (lambda h: h["params"].append({"name": "head.extra", "shape": [0]}),
         r'params\[42\] is \{"name": "head.extra", "shape": \[0\]\}, the config gives no entry'),
        (lambda h: h["params"].append({"name": "head.span.w1", "shape": [0]}),
         r'params\[42\] is \{"name": "head.span.w1", "shape": \[0\]\}, the config gives no entry'),
        (lambda h: h["params"].pop(), r'params\[41\] is missing, the config gives '
         r'\{"name": "head.span.w2"'),
        # exact: the entries save_checkpoint writes, in its order, JSON types included
        (lambda h: h["params"][-1].update(shape=[64.0, 64.0]),
         r'params\[41\] is \{"name": "head.span.w2", "shape": \[64.0, 64.0\]\}'),
        (lambda h: h["params"].insert(0, h["params"].pop(1)),
         r'params\[0\] is \{"name": "encoder.final_ln.g", "shape": \[64\]\}, '
         r'the config gives \{"name": "encoder.final_ln.b", "shape": \[64\]\}'),
        (lambda h: h["params"][0].update(dtype="<f4"),
         r'params\[0\] is \{"dtype": "<f4", "name": "encoder.final_ln.b", "shape": \[64\]\}'),
        (lambda h: h.update(dtype="<f2"), "unsupported parameter dtype '<f2'"),
        (lambda h: h.update(dtype=["<f4"]), "unsupported parameter dtype"),
        (lambda h: h.update(dtype="<f8"),
         "payload truncated or overlong: 690688 bytes, the config's parameters take 1381376"),
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

    @pytest.mark.parametrize("config", [
        ModelConfig(head_dropout=0),  # a JSON int passes for a float
        ModelConfig(head_dropout=np.float64(0.25)),  # a float subclass
        ModelConfig(encoder=EncoderConfig(depth=1, width=8, heads=2, ffn_mult=0,
                                          max_positions=64, dropout=0.0), k=3, max_types=5),
    ])
    def test_accepted_config_saves_and_loads(self, tmp_path, config):
        # every config the dataclasses accept has a checkpoint that loads
        train, _ = synth_dataset(train_size=4, dev_size=0, seed=0)
        model = Model.fresh(config, build_vocab(vocab_corpus(train, ["person"]), max_size=300))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert loaded.config == config
        words = train[0].words
        assert (np.array_equal(loaded.score_table(words, ["person"]).logits,
                               model.score_table(words, ["person"]).logits))

    def test_config_values_that_shape_no_parameter_load(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        rewrite_header(path, lambda h: h["config"].update(k=3, max_types=5))
        config = load_checkpoint(path)[0].config
        assert (config.k, config.max_types) == (3, 5)

    def test_nan_weight_rejected(self, tmp_path):
        # a NaN written into the payload of the first parameter, past the saver's check
        model, _ = tiny_model()
        first = sorted(model.params)[0]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        blob = bytearray(path.read_bytes())
        start = 8 + struct.unpack("<I", blob[4:8])[0]
        blob[start:start + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=f"non-finite value in {first!r}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_not_saved(self, tmp_path, dtype, bad):
        # the first non-finite parameter in payload order is named, and no file is left
        model, _ = tiny_model(dtype=dtype)
        names = sorted(model.params)
        model.params[names[3]].data.reshape(-1)[-1] = bad
        model.params[names[5]].data.reshape(-1)[0] = np.nan
        path = tmp_path / "model.ckpt"
        with pytest.raises(ContractError, match=f"non-finite value in {names[3]!r}"):
            save_checkpoint(path, model)
        assert not path.exists()

    def test_trailing_bytes_rejected(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(DataError, match="payload truncated or overlong: 690689 bytes, "
                                            "the config's parameters take 690688"):
            load_checkpoint(path)


class TestMentionsIO:
    def test_roundtrip_with_scores(self, tmp_path):
        mentions = [[EntityMention(0, 1, "person", 0.9)], []]
        path = tmp_path / "pred.jsonl"
        save_mentions(mentions, path, words_lists=[["a", "b"], ["c"]])
        loaded = load_mentions(path)
        assert loaded[0][0].key() == (0, 1, "person")
        assert loaded[0][0].score == 0.9
        assert loaded[1] == []

    def test_records_put_the_words_first(self, tmp_path):
        # the key order of dataset files, and of predict's stdout
        path = tmp_path / "pred.jsonl"
        save_mentions([[EntityMention(0, 1, "person", 0.5)]], path, words_lists=[["a", "b"]])
        assert path.read_text() == ('{"tokenized_text": ["a", "b"], '
                                    '"ner": [[0, 1, "person", 0.5]]}\n')

    def test_words_are_required(self, tmp_path):
        # a prediction file is a dataset file: no record is written without its words
        path = tmp_path / "pred.jsonl"
        with pytest.raises(TypeError):
            save_mentions([[EntityMention(0, 1, "person", 0.5)]], path)
        assert not path.exists()

    @pytest.mark.parametrize("ner", ['[[1, 0, "x"]]', '[[-3, 7, "y"]]', '[[0, 2, "z"]]'])
    def test_span_bounds_as_in_dataset_files(self, tmp_path, ner):
        # one rule and one message for prediction and dataset files
        path = tmp_path / "data.jsonl"
        path.write_text('{"tokenized_text": ["a", "b"], "ner": ' + ner + '}\n')
        with pytest.raises(DataError) as as_mentions:
            load_mentions(path)
        with pytest.raises(DataError) as as_dataset:
            load_dataset(path)
        assert str(as_mentions.value) == str(as_dataset.value)

    def test_reads_dataset_files_without_scores(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text('{"tokenized_text": ["a"], "ner": [[0, 0, "t"]]}\n')
        loaded = load_mentions(path)
        assert loaded[0][0].score == 1.0

    @pytest.mark.parametrize("record, message", [
        ('{"ner": [[0, "x", "person"]]}', r"span \(0,'x'\) indices must be integers"),
        ('{"ner": [[0.9, 1.7, "person"]]}', r"span \(0.9,1.7\) indices must be integers"),
        ('{"ner": [[true, true, "person"]]}', r"span \(True,True\) indices must be integers"),
        ('{"ner": [[0, 1, "person", "high"]]}', "could not convert"),
        ('{"ner": [[0, 1, "person", NaN]]}', "could not convert score"),
        ('{"ner": [[0, 1, "person", true]]}', "could not convert score"),
        ('{"ner": [[0, 1, "person", 1e999]]}', "could not convert score"),
        ('{"ner": [[0, 1, "person", null]]}', "could not convert score None"),
        ('{"ner": [[0, 1, "person", -Infinity]]}', "could not convert score -inf"),
        ('{"ner": [[0, 1, "person", 1' + '0' * 5000 + ']]}', "invalid JSON"),
        ('{"ner": [["0", 1, "person"]]}', r"span \('0',1\) indices must be integers"),
        ('{"ner": [[0.0, 1, "person"]]}', r"span \(0.0,1\) indices must be integers"),
        ('{"ner": [[0, null, "person"]]}', "int"),
        ('{"ner": [5]}', "malformed ner entry"),
        ('{"ner": [[0, 1]]}', "malformed ner entry"),
        ('{"ner": [[0, 1, "person", 0.5, "junk", 7]]}',  # refused, not cut to four
         r"malformed ner entry \[0, 1, 'person', 0.5, 'junk', 7\]: expected \[start, end"),
        ('{"ner": [[0, 1, "person", 0.5], null]}', "malformed ner entry None"),
        ('{"ner": 5}', "list"),
        ('{"ner": {"0": [0, 1, "person"]}}', "ner must be a list"),
        ('{"ner": [[0, 0, null]]}', "entity type None is not a non-empty string"),
        ('{"ner": [[0, 0, 3]]}', "entity type 3"),
        ('{"ner": [[0, 0, ""]]}', "entity type ''"),
        ('[1, 2]', "object"),
        ('null', "object"),
        # spans need 0 <= start <= end, and end within the words when the record has them
        ('{"ner": [[1, 0, "x"]]}', r"span \(1,0\) out of bounds$"),
        ('{"ner": [[-3, 7, "y"]]}', r"span \(-3,7\) out of bounds$"),
        ('{"ner": [[-1, -1, "y"]]}', r"span \(-1,-1\) out of bounds$"),
        ('{"tokenized_text": ["a", "b"], "ner": [[1, 0, "x"], [-3, 7, "y"]]}',
         r"span \(1,0\) out of bounds for 2 words"),
        ('{"tokenized_text": ["a", "b"], "ner": [[0, 2, "x"]]}',
         r"span \(0,2\) out of bounds for 2 words"),
        ('{"tokenized_text": [], "ner": [[0, 0, "x"]]}',
         r"span \(0,0\) out of bounds for 0 words"),
    ])
    def test_malformed_record_reports_line(self, tmp_path, record, message):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"ner": []}\n' + record + "\n")
        with pytest.raises(DataError, match=f"pred.jsonl:2: .*{message}"):
            load_mentions(path)
