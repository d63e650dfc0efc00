"""Full model: encoder + matching heads, with a convenience wrapper.

``forward`` wires one EncodedPrompt through the encoder and both heads and
returns the (span, type) logit tensor; ``Model`` bundles config, vocab and
parameters and adds prompt chunking for inference with many entity types.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import matcher, prompt as prompt_mod
from .encoder import EncoderConfig, encode, init_encoder_params
from .errors import ContractError


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
        d = dict(d)
        d["encoder"] = EncoderConfig(**d["encoder"])
        return cls(**d)


def init_params(config, vocab_size, seed=0, dtype=np.float32, init_scale=0.02):
    rng = np.random.default_rng(seed)
    params = init_encoder_params(config.encoder, vocab_size, rng, dtype=dtype,
                                 init_scale=init_scale)
    params.update(matcher.init_head_params(config.encoder.width, rng, dtype=dtype,
                                           init_scale=init_scale))
    return params


def forward(enc_prompt, params, config, mode="eval", rng=None):
    """Score every (span, type) pair of one prompt.

    Returns (spans, logits_tensor) where logits has shape |spans| x M and is
    connected to the autodiff graph (for training).
    """
    out = encode(enc_prompt, params, config.encoder, mode=mode, rng=rng)
    spans = matcher.enumerate_spans(len(enc_prompt.words), config.k)
    q = matcher.entity_embed(out.p, params, dropout=config.head_dropout, mode=mode, rng=rng)
    s = matcher.span_embed(out.h, spans, params, dropout=config.head_dropout, mode=mode, rng=rng)
    logits = matcher.match_scores(s, q)
    return spans, logits


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
