"""Golden decoded output of the committed benchmark fixture model.

``golden/fixture_mentions.json`` holds fixed synthetic sentences (10 trained
types, flat) and documents (~200 words, 30 types in two prompts, nested)
with the mentions the fixture model decoded from them when the file was
recorded. Types and spans must match exactly and scores within 1e-4, so a
change that moves the benchmark's ``output_error`` fails here too.

Re-record (only when an output change is intended, and say so in
CHANGES.md): ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import os

import numpy as np
import pytest

from promptner import DecodeConfig, checkpoint, tokenizer
from promptner.data import SynthSpec, synth_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "perfbench", "fixture", "model.ckpt")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "fixture_mentions.json")

UNSEEN_TYPES = ["animal", "vehicle", "sport", "color", "profession", "religion", "planet",
                "musical instrument", "food", "software", "law", "building", "ship",
                "chemical element", "film", "book", "river", "mountain range",
                "political party", "scientific theory"]


def make_cases(model, sentences=12, documents=2, doc_words=200):
    """The recorded inputs: words, types and decode mode of each case."""
    trained = sorted(SynthSpec().types)
    sents, _ = synth_dataset(SynthSpec(), train_size=sentences, dev_size=0, seed=4000)
    cases = [{"words": ex.words, "types": trained, "mode": "flat"} for ex in sents]
    pool, _ = synth_dataset(SynthSpec(), train_size=200, dev_size=0, seed=4001)
    max_pos = model.config.encoder.max_positions
    capacity = max_pos - max_pos // 2
    words, tokens = [], 0
    for ex in pool:
        n_tok = sum(len(tokenizer.segment(w, model.vocab).subword_ids) for w in ex.words)
        if words and (len(words) + len(ex.words) > doc_words or tokens + n_tok > capacity):
            cases.append({"words": words, "types": trained + UNSEEN_TYPES, "mode": "nested"})
            words, tokens = [], 0
            if len(cases) == sentences + documents:
                break
        words, tokens = words + ex.words, tokens + n_tok
    return cases


def decoded(model, case):
    mentions = model.predict(case["words"], case["types"], DecodeConfig(mode=case["mode"]))
    return [[m.start, m.end, m.type, m.score] for m in mentions]


def record():
    model, _ = checkpoint.load_checkpoint(FIXTURE)
    cases = make_cases(model)
    for case in cases:
        case["mentions"] = decoded(model, case)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write('{"cases": [\n' + ",\n".join(map(json.dumps, cases)) + "\n]}\n")


def load():
    if not os.path.exists(GOLDEN):  # not recorded yet: the coverage test fails
        return []
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["cases"]


CASES = load()


@pytest.fixture(scope="module")
def model():
    return checkpoint.load_checkpoint(FIXTURE)[0]


def test_cases_cover_both_workload_shapes():
    modes = [case["mode"] for case in CASES]
    assert modes.count("flat") >= 5 and modes.count("nested") >= 2
    assert max(len(case["words"]) for case in CASES) > 150
    assert sum(len(case["mentions"]) for case in CASES) > 100


@pytest.mark.parametrize("i", range(len(CASES)))
def test_decoded_mentions_match_the_recording(model, i):
    case = CASES[i]
    got = decoded(model, case)
    assert [m[:3] for m in got] == [m[:3] for m in case["mentions"]]
    scores = np.array([m[3] for m in got] or [0.0])
    want = np.array([m[3] for m in case["mentions"]] or [0.0])
    assert np.abs(scores - want).max() < 1e-4


if __name__ == "__main__":
    record()
