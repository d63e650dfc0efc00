"""Loader fuzzing: what the program's own writers produce, mutated, and config
files drawn over the known keys.

Each loader may accept its input or refuse it with a PromptnerError, which
the CLI reports as an ``error:`` line; any other exception would reach the
user as a Python traceback. Sizes are bounded so that no example allocates
more than a few MB.
"""

import dataclasses
import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from promptner.checkpoint import (load_checkpoint, load_mentions, load_score_tables,
                                  save_checkpoint, save_mentions, save_score_tables)
from promptner.cli import _train_setup, build_parser
from promptner.data import load_dataset, save_dataset, synth_dataset, vocab_corpus
from promptner.encoder import EncoderConfig
from promptner.errors import PromptnerError
from promptner.model import Model, ModelConfig
from promptner.tokenizer import build_vocab
from promptner.trainer import TrainConfig, fit

SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
           | st.text(max_size=6))
JSON_VALUES = st.recursive(SCALARS, lambda inner: (st.lists(inner, max_size=3)
                                                   | st.dictionaries(st.text(max_size=6), inner,
                                                                     max_size=3)),
                           max_leaves=6)

TRAIN, _ = synth_dataset(train_size=3, dev_size=0, seed=0)
TYPES = sorted({t for ex in TRAIN for t in ex.positive_types})


def tiny_model():
    config = ModelConfig(encoder=EncoderConfig(depth=1, width=8, heads=2, ffn_mult=1,
                                               max_positions=48), k=3)
    return Model.fresh(config, build_vocab(vocab_corpus(TRAIN, TYPES), max_size=40), seed=0)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The bytes of one file of each kind, as the program writes them."""
    root = tmp_path_factory.mktemp("fuzz")
    model = tiny_model()
    tables = [model.score_table(ex.words[:4], TYPES[:2]) for ex in TRAIN[:2]]
    predictions = [[m for m in ex.gold if m.end < 4] for ex in TRAIN[:2]]
    writers = {"dataset": lambda path: save_dataset(TRAIN, path),
               "mentions": lambda path: save_mentions(predictions, path,
                                                      [ex.words for ex in TRAIN[:2]]),
               "scores": lambda path: save_score_tables(tables, path),
               "checkpoint": lambda path: save_checkpoint(path, model)}
    blobs = {}
    for kind, write in writers.items():
        write(root / kind)
        blobs[kind] = (root / kind).read_bytes()
    return root, blobs


def json_paths(value):
    """The key or index path to every value within a parsed JSON value."""
    yield ()
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        for rest in json_paths(child):
            yield (key,) + rest


def replaced(value, path, new):
    """``value`` with the value at ``path`` replaced by ``new`` (in place)."""
    if not path:
        return new
    value[path[0]] = replaced(value[path[0]], path[1:], new)
    return value


def mutated_lines(data, blob):
    """A JSONL file with one line changed: a JSON value at a drawn path
    replaced, the line cut short, or bytes inserted into it."""
    lines = blob.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    kind = data.draw(st.sampled_from(["replace", "cut", "insert"]))
    if kind == "replace":
        rec = json.loads(line)
        path = data.draw(st.sampled_from(list(json_paths(rec))))
        line = json.dumps(replaced(rec, path, data.draw(JSON_VALUES))).encode()
    elif kind == "cut":
        line = line[:data.draw(st.integers(0, len(line) - 1))]
    else:
        at = data.draw(st.integers(0, len(line)))
        line = line[:at] + data.draw(st.binary(min_size=1, max_size=8)) + line[at:]
    return b"\n".join(lines[:i] + [line] + lines[i + 1:]) + b"\n"


def accepted_or_refused(load, path, blob):
    """Load ``blob`` from ``path``; only a PromptnerError may escape."""
    path.write_bytes(blob)
    try:
        load(path)
    except PromptnerError:
        pass


@pytest.mark.parametrize("kind, load", [("dataset", load_dataset), ("mentions", load_mentions),
                                        ("scores", load_score_tables)])
@given(data=st.data())
def test_jsonl_loaders(written, kind, load, data):
    root, blobs = written
    accepted_or_refused(load, root / f"mutated-{kind}", mutated_lines(data, blobs[kind]))


@given(data=st.data())
def test_checkpoint_loader(written, data):
    root, blobs = written
    blob = blobs["checkpoint"]
    header_end = 8 + struct.unpack("<I", blob[4:8])[0]
    lo, hi = data.draw(st.sampled_from([(0, header_end), (header_end, len(blob))]))
    at = data.draw(st.integers(lo, hi - 1))
    if data.draw(st.booleans()):  # flip bits of one byte
        blob = blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) + blob[at + 1:]
    else:
        blob = blob[:at]
    accepted_or_refused(load_checkpoint, root / "mutated-checkpoint", blob)


# config values: the keys that size the model draw small ints (or, one time
# in ten, a value of another JSON type, which typed() refuses, so no example
# allocates more than a few MB); the other keys draw values of their field's
# type, or one time in ten any JSON scalar
SIZES = {"width": st.integers(-4, 16), "depth": st.integers(-1, 2), "heads": st.integers(-1, 4),
         "ffn_mult": st.integers(-2, 2), "max_positions": st.integers(-2, 64),
         "vocab_size": st.integers(-2, 64), "k": st.integers(-1, 4),
         "max_types": st.integers(-1, 12)}
NOT_INTS = st.none() | st.booleans() | st.floats() | st.text(max_size=6)
TYPED = {"int": st.integers(-2, 3) | st.integers(-2**70, 2**70), "float": st.floats(-1, 2),
         "bool": st.booleans(), "str": st.sampled_from(["sample", "inventory", "sum", "mean"])}
CONFIG_VALUES = {
    **{f.name: TYPED[f.type] for cls in (ModelConfig, EncoderConfig, TrainConfig)
       for f in dataclasses.fields(cls) if f.name not in ("encoder", "dropout")},
    "encoder_dropout": TYPED["float"], "init_scale": TYPED["float"], **SIZES}
CONFIG_KEYS = sorted(CONFIG_VALUES)


@settings(max_examples=60)
@given(data=st.data())
def test_config_file(written, data):
    # set up as `train --config` does, then build the model and take one step
    keys = data.draw(st.sets(st.sampled_from(CONFIG_KEYS), max_size=4))
    values = {key: data.draw(CONFIG_VALUES[key] if data.draw(st.integers(0, 9))
                             else NOT_INTS if key in SIZES else SCALARS) for key in sorted(keys)}
    path = written[0] / "config.json"
    path.write_text(json.dumps(values))
    args = build_parser().parse_args(["train", "--data", "d.jsonl", "--out", "m.ckpt",
                                      "--config", str(path)])
    try:
        mcfg, tcfg, vocab_size, init_scale = _train_setup(args)
        vocab = build_vocab(vocab_corpus(TRAIN, TYPES), max_size=vocab_size)
        model = Model.fresh(mcfg, vocab, seed=tcfg.seed, init_scale=init_scale)
        fit(TRAIN[:1], model, dataclasses.replace(tcfg, steps=1, batch_size=1))
    except PromptnerError:
        pass
