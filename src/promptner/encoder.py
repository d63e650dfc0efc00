"""Toy bidirectional transformer encoder.

Pre-layer-norm residual blocks with multi-head self-attention over the whole
unified sequence (entity markers and text attend to each other freely), plus
learned absolute position embeddings. Each block's attention is the q/k/v
projections, one ``tensor.attention`` op over all heads, and the output
projection. Small enough to train from scratch on one CPU core, but it
exercises every architectural path the matching heads depend on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, SizingError


@dataclass
class EncoderConfig:
    depth: int = 2
    width: int = 64
    heads: int = 4
    ffn_mult: int = 4
    max_positions: int = 512
    dropout: float = 0.1

    def __post_init__(self):
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")


@dataclass
class EncoderOutput:
    p: T.Tensor  # entity-marker representations, M x D
    h: T.Tensor  # first-subword word representations, N x D


def init_encoder_params(config, vocab_size, rng, dtype=np.float32, init_scale=0.02):
    """Fresh encoder parameters, all requires_grad, names prefixed 'encoder.'."""
    d = config.width
    f = config.ffn_mult * d

    def w(shape):
        return T.Tensor(rng.normal(0.0, init_scale, size=shape), requires_grad=True, dtype=dtype)

    def zeros(shape):
        return T.Tensor(np.zeros(shape), requires_grad=True, dtype=dtype)

    def ones(shape):
        return T.Tensor(np.ones(shape), requires_grad=True, dtype=dtype)

    params = {
        "encoder.tok_emb": w((vocab_size, d)),
        "encoder.pos_emb": w((config.max_positions, d)),
        "encoder.final_ln.g": ones((d,)),
        "encoder.final_ln.b": zeros((d,)),
    }
    for i in range(config.depth):
        pre = f"encoder.layer{i}."
        params[pre + "ln1.g"] = ones((d,))
        params[pre + "ln1.b"] = zeros((d,))
        for name in ("wq", "wk", "wv", "wo"):
            params[pre + name] = w((d, d))
        # no key bias: softmax rows are shift-invariant, so its gradient
        # is identically zero and the parameter is redundant
        for name in ("bq", "bv", "bo"):
            params[pre + name] = zeros((d,))
        params[pre + "ln2.g"] = ones((d,))
        params[pre + "ln2.b"] = zeros((d,))
        params[pre + "ffn.w1"] = w((d, f))
        params[pre + "ffn.b1"] = zeros((f,))
        params[pre + "ffn.w2"] = w((f, d))
        params[pre + "ffn.b2"] = zeros((d,))
    return params


def _attention(x, params, pre, config, mode, rng):
    q = T.add(T.matmul(x, params[pre + "wq"]), params[pre + "bq"])
    k = T.matmul(x, params[pre + "wk"])
    v = T.add(T.matmul(x, params[pre + "wv"]), params[pre + "bv"])
    out = T.attention(q, k, v, config.heads)
    out = T.add(T.matmul(out, params[pre + "wo"]), params[pre + "bo"])
    if mode == "train" and config.dropout > 0:
        out = T.dropout(out, config.dropout, rng)
    return out


def _ffn(x, params, pre, config, mode, rng):
    hidden = T.gelu(T.add(T.matmul(x, params[pre + "ffn.w1"]), params[pre + "ffn.b1"]))
    out = T.add(T.matmul(hidden, params[pre + "ffn.w2"]), params[pre + "ffn.b2"])
    if mode == "train" and config.dropout > 0:
        out = T.dropout(out, config.dropout, rng)
    return out


def encode(prompt, params, config, mode="eval", rng=None):
    """Run the encoder over an EncodedPrompt and split the output into p / h.

    ``mode`` is "train" (dropout on, requires ``rng``) or "eval"
    (deterministic). Entity-marker rows are gathered at ent_positions,
    word rows at word_positions.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"unknown mode {mode!r}")
    if mode == "train" and config.dropout > 0 and rng is None:
        raise ContractError("train mode with dropout needs an rng")
    ids = np.asarray(prompt.token_ids, dtype=np.int64)
    vocab_size = params["encoder.tok_emb"].shape[0]
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise ContractError("token id out of range for embedding table")
    if len(ids) > config.max_positions:
        raise SizingError(f"sequence length {len(ids)} exceeds max_positions={config.max_positions}")

    # the sentence restarts at a fixed position offset so word positions do
    # not shift with the number of entity types in the prompt
    sent_start = prompt.word_positions[0]
    offset = config.max_positions // 2
    if sent_start > offset:
        raise SizingError(f"type section length {sent_start} exceeds position offset {offset}")
    if offset + (len(ids) - sent_start) > config.max_positions:
        raise SizingError(f"sentence length {len(ids) - sent_start} exceeds "
                          f"{config.max_positions - offset} positions")
    positions = np.arange(len(ids))
    positions[sent_start:] = offset + np.arange(len(ids) - sent_start)

    x = T.add(T.gather_rows(params["encoder.tok_emb"], ids),
              T.gather_rows(params["encoder.pos_emb"], positions))
    for i in range(config.depth):
        pre = f"encoder.layer{i}."
        a = T.layer_norm(x, params[pre + "ln1.g"], params[pre + "ln1.b"])
        x = T.add(x, _attention(a, params, pre, config, mode, rng))
        b = T.layer_norm(x, params[pre + "ln2.g"], params[pre + "ln2.b"])
        x = T.add(x, _ffn(b, params, pre, config, mode, rng))
    x = T.layer_norm(x, params["encoder.final_ln.g"], params["encoder.final_ln.b"])

    return EncoderOutput(p=T.gather_rows(x, prompt.ent_positions),
                         h=T.gather_rows(x, prompt.word_positions))
