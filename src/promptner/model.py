"""Full model: encoder + matching heads, with a convenience wrapper.

``forward_batch`` wires a list of EncodedPrompts through the encoder and both
heads as one graph and scores every span of the batch against every type of
it in one product; ``forward`` is the same with one prompt. ``Model`` bundles
config, vocab and parameters and adds prompt chunking for many entity types.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import matcher, prompt as prompt_mod, tensor as T
from .encoder import EncoderConfig, encode, encoder_param_shapes, init_from_shapes
from .errors import ConfigError, ContractError, check_fields, ruled


def pop_fields(cls, values, **renamed):
    """Pop the entries of ``values`` that set fields of config dataclass ``cls``
    as its keyword arguments; ``renamed`` gives a field's key (None: not settable)."""
    by_key = {renamed.get(f.name, f.name): f.name for f in fields(cls)}
    return {by_key[key]: values.pop(key) for key in list(values) if key in by_key}


@dataclass
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig, metadata={"rule": EncoderConfig})
    k: int = ruled(12, ">= 1")                     # span width cap
    head_dropout: float = ruled(0.4, "in [0, 1)")  # heads are the non-pretrained-equivalent layers
    max_types: int = ruled(25, ">= 1")             # per-prompt cap during training

    def __post_init__(self):
        check_fields(self)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``: exactly the fields' keys, each value of its
        field's JSON type (ConfigError)."""
        keys = cls().to_dict()
        if set(d) != set(keys) or set(d["encoder"]) != set(keys["encoder"]):
            raise ConfigError(f"config: expected the keys {sorted(keys)}, "
                              f"with encoder keys {sorted(keys['encoder'])}")
        return cls(encoder=EncoderConfig(**d["encoder"]),
                   **{key: value for key, value in d.items() if key != "encoder"})


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
    spans = [matcher.enumerate_spans(len(p.word_positions), config.k) for p in prompts]
    dropout = config.head_dropout if mode == "train" else 0.0  # encode has checked mode
    q = matcher.entity_embed(out.p, params, dropout=dropout, rng=rng)
    rows = np.concatenate([sp + w for sp, w in zip(spans, out.word_start)])  # spans in out.h
    r = matcher.span_embed(out.h, rows, params, dropout=dropout, rng=rng)
    return spans, matcher.match_scores(r, q, params)


class Model:
    """Config + vocab + parameters, with eval-mode scoring helpers."""

    def __init__(self, config, vocab, params):
        self.config = config
        self.vocab = vocab
        self.params = params
        # score_table runs on gradient-free views: no tape, each intermediate
        # freed after its last use. They share the parameter arrays, so
        # in-place updates such as training's stay visible.
        self._frozen = {name: T.Tensor(p.data, dtype=p.dtype) for name, p in params.items()}

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
            logits_cols.append(forward(enc, self._frozen, self.config, mode="eval")[1].data)
        return matcher.ScoreTable(len(words), self.config.k, types,
                                  logits=np.concatenate(logits_cols, axis=1))

    def predict(self, words, entity_types, decode_config=None):
        from .decoder import decode
        return decode(self.score_table(words, entity_types), decode_config)
