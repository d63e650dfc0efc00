"""Shared set-up for the benchmark: import path, fixture location, and the
criterion-2 training recipe that both the fixture generator and the `train`
workload use.

Importing this module puts the checkout's own ``src`` directory first on
``sys.path``, so the benchmark always measures the code next to it and never
an installed copy. When ``src/promptner`` is missing the import fails with
``MissingSource``.
"""

from __future__ import annotations

import hashlib
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
FIXTURE = os.path.join(BENCH_DIR, "fixture", "model.ckpt")
FIXTURE_SHA = FIXTURE + ".sha256"


class MissingSource(RuntimeError):
    """The checkout holds no promptner sources to benchmark."""


if not os.path.isfile(os.path.join(SRC, "promptner", "__init__.py")):
    raise MissingSource(f"no promptner package under {SRC}")
if sys.path[0] != SRC:
    sys.path.insert(0, SRC)

import promptner  # noqa: E402

if os.path.dirname(os.path.abspath(promptner.__file__)) != os.path.join(SRC, "promptner"):
    raise MissingSource(f"promptner imported from {promptner.__file__}, not {SRC}")

from promptner import EncoderConfig, Model, ModelConfig, TrainConfig  # noqa: E402
from promptner.data import SynthSpec, synth_dataset, vocab_corpus  # noqa: E402
from promptner.tokenizer import build_vocab  # noqa: E402

TRAIN_DATA_SEED = 0
TRAIN_SIZE = 50
HELD_OUT_SEED = 1
HELD_OUT_SIZE = 20


def trained_types():
    return sorted(SynthSpec().types)


def train_data():
    """The 50 synthetic training sentences of the recipe (data seed 0)."""
    train, _ = synth_dataset(SynthSpec(), train_size=TRAIN_SIZE, dev_size=0,
                             seed=TRAIN_DATA_SEED)
    return train


def fresh_model(train, seed):
    """Vocabulary and untrained model of the recipe: dropout off, init 0.05."""
    vocab = build_vocab(vocab_corpus(train, trained_types()), max_size=2000)
    config = ModelConfig(encoder=EncoderConfig(dropout=0.0), head_dropout=0.0)
    return Model.fresh(config, vocab, seed=seed, init_scale=0.05)


def train_config(steps, seed, log_every=0):
    return TrainConfig(steps=steps, batch_size=8, lr_encoder=2e-3, lr_head=2e-3,
                       drop_prob=0.0, reduction="sum", seed=seed, log_every=log_every,
                       type_policy="inventory", shuffle_types=False)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def recorded_fixture_sha():
    with open(FIXTURE_SHA, encoding="utf-8") as fh:
        return fh.read().split()[0]
