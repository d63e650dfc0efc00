"""Each config field's declared rule, read from the dataclass declarations.

A field declares its rule with ``errors.ruled`` (or ``metadata={"rule": ...}``):
a range text, a tuple of allowed values or a class. ``check_fields`` refuses a
value outside it as ``<field> must be <rule>, got <value>``. The walk below
reads the rules, so a ruled field added later is covered with no new row.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from promptner.data import synth_dataset, vocab_corpus
from promptner.decoder import DecodeConfig
from promptner.encoder import EncoderConfig
from promptner.errors import RANGES, ConfigError
from promptner.model import Model, ModelConfig
from promptner.tokenizer import build_vocab
from promptner.trainer import TrainConfig

CONFIGS = (EncoderConfig, ModelConfig, TrainConfig, DecodeConfig)
BASE = {EncoderConfig: {"heads": 1}}  # 1 divides every width: only the walked rule can refuse
RULED = [(cls, f) for cls in CONFIGS for f in dataclasses.fields(cls) if "rule" in f.metadata]


def edges(kind, rule):
    """(accepted, refused) values of field type ``kind`` at each end of ``rule``:
    a closed end and the value just outside it, an open end and the value just inside."""
    if isinstance(rule, type):
        return [rule()], [{"depth": 2}, None]
    if isinstance(rule, tuple):
        return list(rule), ["other", rule[0].upper()]
    m = re.fullmatch(r">= (\d+)|in ([\[(])(\d+), (\d+)([\])])", rule)
    if m.group(1) is not None:  # (end, closed, direction out of the range)
        ends = [(m.group(1), True, -1)]
    else:
        ends = [(m.group(3), m.group(2) == "[", -1), (m.group(4), m.group(5) == "]", 1)]
    if kind == "int":
        value, step = int, (lambda x, d: x + d)
    else:
        value, step = float, (lambda x, d: float(np.nextafter(x, d * math.inf)))
    accepted, refused = [], []
    for end, closed, outward in ends:
        end = value(end)
        if closed:
            accepted.append(end)
            refused.append(step(end, outward))
        else:
            refused.append(end)
            accepted.append(step(end, -outward))
    return accepted, refused


def rule_text(rule):
    if isinstance(rule, type):
        return rule.__name__
    return " or ".join(map(json.dumps, rule)) if isinstance(rule, tuple) else rule


@pytest.mark.parametrize("cls, f", RULED, ids=[f"{c.__name__}.{f.name}" for c, f in RULED])
def test_each_rule_holds_at_its_edges(cls, f):
    rule = f.metadata["rule"]
    accepted, refused = edges(f.type, rule)
    assert accepted and refused
    for value in accepted:
        assert getattr(cls(**{**BASE.get(cls, {}), f.name: value}), f.name) == value
    for value in refused:
        message = f"{f.name} must be {rule_text(rule)}, got {json.dumps(value)}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            cls(**{**BASE.get(cls, {}), f.name: value})


def test_every_number_and_string_field_declares_a_rule():
    # the ranges are the declared ones, each spelled once
    unruled = [f"{cls.__name__}.{f.name}" for cls in CONFIGS for f in dataclasses.fields(cls)
               if f.type in ("int", "float", "str") and "rule" not in f.metadata]
    assert unruled == []
    assert {f.metadata["rule"] for _, f in RULED if isinstance(f.metadata["rule"], str)} \
        == set(RANGES)


def test_the_edges_are_those_of_the_rule_text():
    assert edges("int", ">= 1") == ([1], [0])
    assert edges("float", "in [0, 1)") == ([0.0, float(np.nextafter(1.0, 0.0))],
                                           [-5e-324, 1.0])
    assert edges("float", "in (0, 1)") == ([5e-324, float(np.nextafter(1.0, 0.0))], [0.0, 1.0])
    assert edges("float", "in [0, 1]") == ([0.0, 1.0], [-5e-324, float(np.nextafter(1.0, 2.0))])


def test_encoder_must_be_an_encoder_config():
    # was accepted, and Model.fresh then raised AttributeError on the dict
    with pytest.raises(ConfigError, match='^encoder must be EncoderConfig, got {"depth": 2}$'):
        ModelConfig(encoder={"depth": 2})


class TestInitScale:
    def vocab(self):
        train, _ = synth_dataset(train_size=2, dev_size=0, seed=0)
        return build_vocab(vocab_corpus(train, ["person"]), max_size=200)

    @pytest.mark.parametrize("scale, message", [
        (-1, "init_scale must be >= 0, got -1"),
        (-1e-9, "init_scale must be >= 0, got -1e-09"),
        (float("nan"), "init_scale must be float, got NaN"),  # built NaN parameters
        (float("inf"), "init_scale must be float, got Infinity"),
        ("0.02", 'init_scale must be float, got "0.02"'),
    ])
    def test_refused_where_it_is_used(self, scale, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            Model.fresh(ModelConfig(), self.vocab(), init_scale=scale)

    def test_zero_accepted(self):
        model = Model.fresh(ModelConfig(), self.vocab(), init_scale=0)
        assert not np.any(model.params["encoder.tok_emb"].data)
