"""Toy bidirectional transformer encoder.

Pre-layer-norm residual blocks with multi-head self-attention over the whole
unified sequence (entity markers and text attend to each other freely), plus
learned absolute position embeddings. Each block's attention is the q/k/v
projections, one ``tensor.attention`` op over all heads, and the output
projection. A list of prompts runs as one padded batch: B prompts of at
most L tokens are B*L rows, and attention ignores the padded keys, so each
prompt's real rows are computed as if it ran alone. Small enough to train
from scratch on one CPU core, but it exercises every architectural path the
matching heads depend on.
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
        if self.heads < 1 or self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")


@dataclass
class EncoderOutput:
    p: T.Tensor  # entity-marker rows of every prompt, in prompt order: sum(M_b) x D
    h: T.Tensor  # first-subword word rows of every prompt, in prompt order: sum(N_b) x D


def encoder_param_shapes(config, vocab_size):
    """Name -> shape of every encoder parameter, in draw order."""
    d = config.width
    f = config.ffn_mult * d
    shapes = {"encoder.tok_emb": (vocab_size, d), "encoder.pos_emb": (config.max_positions, d),
              "encoder.final_ln.g": (d,), "encoder.final_ln.b": (d,)}
    for i in range(config.depth):
        pre = f"encoder.layer{i}."
        shapes.update({pre + "ln1.g": (d,), pre + "ln1.b": (d,)})
        shapes.update({pre + name: (d, d) for name in ("wq", "wk", "wv", "wo")})
        # no key bias: softmax rows are shift-invariant, so its gradient
        # is identically zero and the parameter is redundant
        shapes.update({pre + name: (d,) for name in ("bq", "bv", "bo")})
        shapes.update({pre + "ln2.g": (d,), pre + "ln2.b": (d,), pre + "ffn.w1": (d, f),
                       pre + "ffn.b1": (f,), pre + "ffn.w2": (f, d), pre + "ffn.b2": (d,)})
    return shapes


def init_from_shapes(shapes, rng, dtype=np.float32, init_scale=0.02):
    """requires_grad parameters for a name -> shape table: matrices drawn
    from N(0, init_scale^2) in table order, layer-norm gains (names ending
    ".g") ones, other vectors zeros."""
    def init(name, shape):
        if len(shape) == 2:
            return rng.normal(0.0, init_scale, size=shape)
        return np.ones(shape) if name.endswith(".g") else np.zeros(shape)

    return {name: T.Tensor(init(name, shape), requires_grad=True, dtype=dtype)
            for name, shape in shapes.items()}


def _attention(x, mask, params, pre, config, mode, rng):
    q = T.linear(x, params[pre + "wq"], params[pre + "bq"])
    k = T.linear(x, params[pre + "wk"])
    v = T.linear(x, params[pre + "wv"], params[pre + "bv"])
    out = T.attention(q, k, v, config.heads, mask)
    out = T.linear(out, params[pre + "wo"], params[pre + "bo"])
    if mode == "train" and config.dropout > 0:
        out = T.dropout(out, config.dropout, rng)
    return out


def _ffn(x, params, pre, config, mode, rng):
    hidden = T.gelu(T.linear(x, params[pre + "ffn.w1"], params[pre + "ffn.b1"]))
    out = T.linear(hidden, params[pre + "ffn.w2"], params[pre + "ffn.b2"])
    if mode == "train" and config.dropout > 0:
        out = T.dropout(out, config.dropout, rng)
    return out


def positions(prompt, config):
    """Position ids of one prompt's tokens (SizingError if it does not fit).

    The sentence restarts at a fixed offset, so word positions do not shift
    with the number of entity types in the prompt.
    """
    n = len(prompt.token_ids)
    sent_start = prompt.word_positions[0]
    offset = config.max_positions // 2
    if sent_start > offset:
        raise SizingError(f"type section length {sent_start} exceeds position offset {offset}")
    if offset + (n - sent_start) > config.max_positions:
        raise SizingError(f"sentence length {n - sent_start} exceeds "
                          f"{config.max_positions - offset} positions")
    pos = np.arange(n)
    pos[sent_start:] = offset + np.arange(n - sent_start)
    return pos


def encode(prompts, params, config, mode="eval", rng=None):
    """Run the encoder over a list of EncodedPrompts as one padded batch.

    ``mode`` is "train" (dropout on, requires ``rng``) or "eval"
    (deterministic). Entity-marker rows are gathered at ent_positions, word
    rows at word_positions, prompt after prompt.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"unknown mode {mode!r}")
    if mode == "train" and config.dropout > 0 and rng is None:
        raise ContractError("train mode with dropout needs an rng")
    if not prompts:
        raise ContractError("encode needs at least one prompt")
    length = max(len(p.token_ids) for p in prompts)
    ids = np.zeros((len(prompts), length), dtype=np.int64)
    pos = np.zeros_like(ids)
    real = np.zeros(ids.shape, dtype=bool)
    ent, word = [], []  # rows of the B*L output; padding is token 0, [PAD]
    for b, prompt in enumerate(prompts):
        n = len(prompt.token_ids)
        pos[b, :n] = positions(prompt, config)
        ids[b, :n] = prompt.token_ids
        real[b, :n] = True
        ent.append(b * length + np.asarray(prompt.ent_positions, dtype=np.int64))
        word.append(b * length + np.asarray(prompt.word_positions, dtype=np.int64))

    x = T.add(T.gather_rows(params["encoder.tok_emb"], ids.reshape(-1)),
              T.gather_rows(params["encoder.pos_emb"], pos.reshape(-1)))
    for i in range(config.depth):
        pre = f"encoder.layer{i}."
        a = T.layer_norm(x, params[pre + "ln1.g"], params[pre + "ln1.b"])
        x = T.add(x, _attention(a, real, params, pre, config, mode, rng))
        b = T.layer_norm(x, params[pre + "ln2.g"], params[pre + "ln2.b"])
        x = T.add(x, _ffn(b, params, pre, config, mode, rng))
    x = T.layer_norm(x, params["encoder.final_ln.g"], params["encoder.final_ln.b"])

    return EncoderOutput(p=T.gather_rows(x, np.concatenate(ent)),
                         h=T.gather_rows(x, np.concatenate(word)))
