"""Full model: encoder + matching heads, with a convenience wrapper.

``forward_batch`` wires a list of EncodedPrompts through the encoder and both
heads as one graph and returns each prompt's (span, type) logit tensor;
``forward`` is the same with one prompt. ``Model`` bundles config, vocab and
parameters and adds prompt chunking for inference with many entity types.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from itertools import accumulate

import numpy as np

from . import matcher, prompt as prompt_mod
from . import tensor as T
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
    return forward_batch([enc_prompt], params, config, mode=mode, rng=rng)[0]


def forward_batch(prompts, params, config, mode="eval", rng=None):
    """One (spans, logits_tensor) pair per prompt, as ``forward`` returns,
    from one graph: the encoder and both heads run once over the batch, and
    only each prompt's span x type product is its own."""
    out = encode(prompts, params, config.encoder, mode=mode, rng=rng)
    spans = [matcher.enumerate_spans(len(p.words), config.k) for p in prompts]
    words = list(accumulate((len(p.words) for p in prompts), initial=0))
    types = list(accumulate((len(p.entity_types) for p in prompts), initial=0))
    rows = list(accumulate((len(sp) for sp in spans), initial=0))
    q = matcher.entity_embed(out.p, params, dropout=config.head_dropout, mode=mode, rng=rng)
    s = matcher.span_embed(out.h, np.concatenate([sp + w for sp, w in zip(spans, words)]),
                           params, dropout=config.head_dropout, mode=mode, rng=rng)
    return [(sp, matcher.match_scores(_rows(s, rows[b], rows[b + 1]),
                                      _rows(q, types[b], types[b + 1])))
            for b, sp in enumerate(spans)]


def _rows(t, start, stop):
    """Rows start:stop of t; t itself, with no node, when that is all of it."""
    return t if stop - start == t.shape[0] else T.gather_rows(t, np.arange(start, stop))


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
