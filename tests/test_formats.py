"""Every JSONL file the program writes reads back to what was written.

Each case writes a file with a public writer, reads it back with the reader
of that format and returns both sides for comparison.
"""

import contextlib
import io
import json

import pytest

from promptner.checkpoint import load_mentions, save_mentions
from promptner.cli import main
from promptner.data import load_dataset, read_jsonl, save_dataset, synth_dataset
from promptner.decoder import EntityMention

WORDS = [["alain", "farley", "works", "at", "mcgill"], ["paris"], ["a", "b", "c"]]
MENTIONS = [[EntityMention(0, 1, "person", score=0.75), EntityMention(4, 4, "org", score=0.5)],
            [],
            [EntityMention(0, 2, "thing", score=1.0), EntityMention(1, 1, "letter", score=0.125)]]


def dataset_case(tmp_path):
    examples, _ = synth_dataset(train_size=6, dev_size=0, seed=3)
    save_dataset(examples, tmp_path / "data.jsonl")
    return examples, load_dataset(tmp_path / "data.jsonl")


def mentions_case(tmp_path):
    path = tmp_path / "pred.jsonl"
    save_mentions(MENTIONS, path, WORDS)
    # with its words a prediction file is also a dataset file
    return ([(ms, words) for ms, words in zip(MENTIONS, WORDS)],
            [(ms, ex.words) for ms, ex in zip(load_mentions(path), load_dataset(path))])


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


@pytest.mark.parametrize("case", [dataset_case, mentions_case, train_trace_case],
                         ids=["dataset", "mentions", "train_trace"])
def test_written_file_reads_back(tmp_path, case):
    written, read = case(tmp_path)
    assert written
    assert read == written
