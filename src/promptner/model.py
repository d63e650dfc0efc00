"""Full model: encoder + matching heads, with a convenience wrapper.

``forward_batch`` wires a list of EncodedPrompts through the encoder and both
heads as one graph and scores every span of the batch against every type of
it in one product; ``forward`` is the same with one prompt. ``Model`` bundles
config, vocab and parameters and adds prompt chunking for many entity types.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields, asdict
from itertools import accumulate

import numpy as np

from . import matcher, prompt as prompt_mod
from .encoder import EncoderConfig, encode, encoder_param_shapes, init_from_shapes
from .errors import ConfigError, ContractError

# JSON types a config value may have, by field type (the config modules'
# annotations are strings): ints pass as floats, and only a bool passes as a
# bool (JSON true is not the int 1 here)
_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def typed(source, key, value, kind):
    """``value`` if it has the JSON type of field type ``kind`` (and, for a
    float, is finite)."""
    if (isinstance(value, bool) != (kind == "bool") or not isinstance(value, _FIELD_TYPES[kind])
            or (kind == "float" and not abs(value) <= sys.float_info.max)):
        raise ConfigError(f"{source}: {key} must be {kind}, got {json.dumps(value)}")
    return value


def pop_fields(cls, values, source, **renamed):
    """Pop the entries of ``values`` that set fields of config dataclass
    ``cls``, type-checked, as its keyword arguments; ``renamed`` gives a
    field's key (None: not settable)."""
    by_key = {renamed.get(f.name, f.name): f for f in fields(cls)}
    return {by_key[key].name: typed(source, key, values.pop(key), by_key[key].type)
            for key in list(values) if key in by_key}


@dataclass
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    k: int = 12                # span width cap
    head_dropout: float = 0.4  # heads are the non-pretrained-equivalent layers
    max_types: int = 25        # per-prompt cap during training

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``: exactly the fields' keys, each value of its
        field's JSON type as in config files (ConfigError)."""
        keys = cls().to_dict()
        if set(d) != set(keys) or set(d["encoder"]) != set(keys["encoder"]):
            raise ConfigError(f"config: expected the keys {sorted(keys)}, "
                              f"with encoder keys {sorted(keys['encoder'])}")
        values, enc = dict(d), dict(d["encoder"])
        return cls(encoder=EncoderConfig(**pop_fields(EncoderConfig, enc, "config.encoder")),
                   **pop_fields(cls, values, "config", encoder=None))


def param_shapes(config, vocab_size):
    """Name -> shape of every parameter of a model of ``config``, in draw order."""
    return {**encoder_param_shapes(config.encoder, vocab_size),
            **matcher.head_param_shapes(config.encoder.width)}


def init_params(config, vocab_size, seed=0, dtype=np.float32, init_scale=0.02):
    return init_from_shapes(param_shapes(config, vocab_size), np.random.default_rng(seed),
                            dtype=dtype, init_scale=init_scale)


def forward(enc_prompt, params, config, mode="eval", rng=None):
    """Score every (span, type) pair of one prompt.

    Returns (spans, logits_tensor) where logits has shape |spans| x M and is
    connected to the autodiff graph (for training).
    """
    (spans,), logits = forward_batch([enc_prompt], params, config, mode=mode, rng=rng)
    return spans, logits


def forward_batch(prompts, params, config, mode="eval", rng=None):
    """Each prompt's spans, and one sum(S_b) x sum(M_b) logits tensor scoring
    every span of the batch against every type of it, from one graph. Prompt
    b's own pairs are the block of its spans' rows and its types' columns;
    the other blocks pair one prompt's spans with another's types."""
    out = encode(prompts, params, config.encoder, mode=mode, rng=rng)
    spans = [matcher.enumerate_spans(len(p.words), config.k) for p in prompts]
    words = accumulate((len(p.words) for p in prompts), initial=0)
    q = matcher.entity_embed(out.p, params, dropout=config.head_dropout, mode=mode, rng=rng)
    s = matcher.span_embed(out.h, np.concatenate([sp + w for sp, w in zip(spans, words)]),
                           params, dropout=config.head_dropout, mode=mode, rng=rng)
    return spans, matcher.match_scores(s, q)


class Model:
    """Config + vocab + parameters, with eval-mode scoring helpers."""

    def __init__(self, config, vocab, params):
        self.config = config
        self.vocab = vocab
        self.params = params

    @classmethod
    def fresh(cls, config, vocab, seed=0, dtype=np.float32, init_scale=0.02):
        return cls(config, vocab, init_params(config, len(vocab), seed=seed,
                                              dtype=dtype, init_scale=init_scale))

    def score_table(self, words, entity_types):
        """Eval-mode ScoreTable for one sentence; chunks prompts when the
        type list exceeds the training-time cap and unions the columns."""
        types = list(entity_types)
        if not types or len(set(types)) != len(types):
            raise ContractError("entity types must be non-empty and distinct")
        logits_cols = []
        for group in prompt_mod.chunk_types(types, self.config.max_types):
            enc = prompt_mod.build_prompt(group, words, self.vocab,
                                          max_types=self.config.max_types,
                                          max_positions=self.config.encoder.max_positions)
            spans, logits = forward(enc, self.params, self.config, mode="eval")
            logits_cols.append(logits.data)
        all_logits = np.concatenate(logits_cols, axis=1)
        return matcher.make_score_table(spans, types, all_logits,
                                        num_words=len(words), k=self.config.k)

    def predict(self, words, entity_types, decode_config=None):
        from .decoder import DecodeConfig, decode
        table = self.score_table(words, entity_types)
        return decode(table, decode_config or DecodeConfig())
