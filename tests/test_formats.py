"""Every JSONL file the program writes reads back to what was written.

Each case writes a file with a public writer, reads it back with the reader
of that format and returns both sides for comparison. Score tables include
saturated float32 probabilities (exactly 0 and 1), which the reader must
accept because the model produces them, and a table read back decodes to the
mentions of the table written.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from promptner.checkpoint import (load_mentions, load_score_tables, save_mentions,
                                  save_score_tables)
from promptner.cli import main
from promptner.data import load_dataset, read_jsonl, save_dataset, synth_dataset
from promptner.decoder import DecodeConfig, EntityMention, decode
from promptner.matcher import ScoreTable, enumerate_spans, span_count
from promptner.tensor import sigmoid

WORDS = [["alain", "farley", "works", "at", "mcgill"], ["paris"], ["a", "b", "c"]]
MENTIONS = [[EntityMention(0, 1, "person", score=0.75), EntityMention(4, 4, "org", score=0.5)],
            [],
            [EntityMention(0, 2, "thing", score=1.0), EntityMention(1, 1, "letter", score=0.125)]]


def dataset_case(tmp_path):
    examples, _ = synth_dataset(train_size=6, dev_size=0, seed=3)
    save_dataset(examples, tmp_path / "data.jsonl")
    return examples, load_dataset(tmp_path / "data.jsonl")


def mentions_case(tmp_path):
    save_mentions(MENTIONS, tmp_path / "pred.jsonl")
    return MENTIONS, load_mentions(tmp_path / "pred.jsonl")


def mentions_with_words_case(tmp_path):
    path = tmp_path / "pred.jsonl"
    save_mentions(MENTIONS, path, words_lists=WORDS)
    # with its words a prediction file is also a dataset file
    return ([(ms, words) for ms, words in zip(MENTIONS, WORDS)],
            [(ms, ex.words) for ms, ex in zip(load_mentions(path), load_dataset(path))])


def score_tables_case(tmp_path):
    rng = np.random.default_rng(0)
    tables = []
    for num_words, k, types in ((4, 3, ["a", "b"]), (2, 2, ["c"]), (6, 2, ["a", "b", "c"])):
        spans = enumerate_spans(num_words, k)
        logits = rng.normal(scale=8.0, size=(len(spans), len(types))).astype(np.float32)
        logits[0] = 100.0
        logits[-1] = -100.0
        tables.append(ScoreTable(num_words, k, types, logits=logits))
        tables.append(ScoreTable(num_words, k, types, probs=tables[-1].probs))
    assert all(t.probs.min() == 0.0 and t.probs.max() == 1.0 for t in tables)
    # a seeded sweep of 1-8 words, k 1-4 and 1-3 types: logits and probs
    # tables of float32 and float64, with pairs saturated at +-100
    for i in range(40):
        num_words, k = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        types = ["a", "b", "c"][:int(rng.integers(1, 4))]
        dtype = (np.float32, np.float64)[i % 2]
        logits = rng.normal(scale=8.0, size=(span_count(num_words, k), len(types)))
        saturated = rng.random(logits.shape) < 0.2
        logits[saturated] = rng.choice([-100.0, 100.0], size=np.count_nonzero(saturated))
        logits = logits.astype(dtype)
        scores = {"logits": logits} if i % 4 < 2 else {"probs": sigmoid(logits)}
        tables.append(ScoreTable(num_words, k, types, **scores))

    def fields(t):
        return (t.spans.tolist(), t.types, t.probs.tolist(), t.num_words, t.k,
                decode(t, DecodeConfig("flat", 0.3)), decode(t, DecodeConfig("nested", 0.3)))

    save_score_tables(tables, tmp_path / "scores.jsonl")
    loaded = load_score_tables(tmp_path / "scores.jsonl")
    return [fields(t) for t in tables], [fields(t) for t in loaded]


def train_trace_case(tmp_path):
    examples, _ = synth_dataset(train_size=6, dev_size=0, seed=3)
    save_dataset(examples, tmp_path / "data.jsonl")
    (tmp_path / "config.json").write_text(json.dumps({"log_every": 1, "vocab_size": 300}))
    trace = tmp_path / "trace.jsonl"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["train", "--data", str(tmp_path / "data.jsonl"), "--steps", "3",
                     "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "model.ckpt"), "--trace", str(trace)]) == 0
    # with log_every 1 every step record is also printed as it is made
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    return [rec for rec in lines if "step" in rec], read_jsonl(trace, dict)


@pytest.mark.parametrize("case", [dataset_case, mentions_case, mentions_with_words_case,
                                  score_tables_case, train_trace_case],
                         ids=["dataset", "mentions", "mentions_with_words", "score_tables",
                              "train_trace"])
def test_written_file_reads_back(tmp_path, case):
    written, read = case(tmp_path)
    assert written
    assert read == written
