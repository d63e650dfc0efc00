"""Toy bidirectional transformer encoder.

Pre-layer-norm residual blocks with multi-head self-attention over the whole
unified sequence (entity markers and text attend to each other freely), plus
learned absolute position embeddings. Each block's attention is the q/k/v
projections, one ``tensor.attention`` op over all heads, and the output
projection. A list of prompts runs as one padded batch: B prompts of at
most L tokens are B*L rows, and attention ignores the padded keys, so each
prompt's real rows are computed as if it ran alone. The heads read only the
marker and first-subword rows, so the last layer's queries and all after them
run on those alone (PoWER-BERT's cut of rows no later layer reads). Small
enough to train from scratch on one CPU core, but it exercises every
architectural path the matching heads depend on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, check_fields, check_rule, ruled, typed


@dataclass
class EncoderConfig:
    depth: int = ruled(2, ">= 1")
    width: int = ruled(64, ">= 1")
    heads: int = ruled(4, ">= 1")
    ffn_mult: int = ruled(4, ">= 0")
    max_positions: int = ruled(512, ">= 1")
    dropout: float = ruled(0.1, "in [0, 1)")

    def __post_init__(self):
        check_fields(self)
        if self.width % self.heads:
            raise ConfigError(f"heads must divide width, got heads {self.heads} and width "
                              f"{self.width}")


@dataclass
class EncoderOutput:
    p: T.Tensor  # entity-marker rows of every prompt, in prompt order: sum(M_b) x D
    h: T.Tensor  # the read rows: prompt b's markers, words and padding from row b*K: B*K x D
    word_start: list  # row of h of each prompt's first word; its others follow


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
    ".g") ones, other vectors zeros. ``init_scale`` must be a finite float >= 0."""
    check_rule("init_scale", typed("init_scale", init_scale, "float"), ">= 0")

    def init(name, shape):
        if len(shape) == 2:
            return rng.normal(0.0, init_scale, size=shape)
        return np.ones(shape) if name.endswith(".g") else np.zeros(shape)

    return {name: T.Tensor(init(name, shape), requires_grad=True, dtype=dtype)
            for name, shape in shapes.items()}


def _attention(queries, x, mask, params, pre, config, dropout, rng):
    q = T.linear(queries, params[pre + "wq"], params[pre + "bq"])
    k = T.linear(x, params[pre + "wk"])
    v = T.linear(x, params[pre + "wv"], params[pre + "bv"])
    out = T.attention(q, k, v, config.heads, mask)
    out = T.linear(out, params[pre + "wo"], params[pre + "bo"])
    return T.dropout(out, dropout, rng)


def _ffn(x, params, pre, dropout, rng):
    hidden = T.gelu(T.linear(x, params[pre + "ffn.w1"], params[pre + "ffn.b1"]))
    out = T.linear(hidden, params[pre + "ffn.w2"], params[pre + "ffn.b2"])
    return T.dropout(out, dropout, rng)


def encode(prompts, params, config, mode="eval", rng=None):
    """Run the encoder over EncodedPrompts, at their position ids, as one padded batch.

    ``mode`` is "train" (dropout on, drawn from ``rng``) or "eval"
    (deterministic). The read rows are each prompt's ent_positions, then its
    word_positions, padded with the prompt's first row to K rows. A prompt
    laid out for another ``max_positions`` is refused before any row is read.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"unknown mode {mode!r}")
    dropout = config.dropout if mode == "train" else 0.0
    if not prompts:
        raise ContractError("encode needs at least one prompt")
    lengths = [len(p.token_ids) for p in prompts]
    length = max(lengths)
    width = max(len(p.ent_positions) + len(p.word_positions) for p in prompts)
    ids, pos, read = [], [], []  # each prompt's rows of the B*L, padded with 0
    for b, prompt in enumerate(prompts):
        if prompt.max_positions != config.max_positions:
            raise ContractError(f"prompt {b} is laid out for {prompt.max_positions} positions, "
                                f"the encoder has {config.max_positions}")
        pad = [0] * (length - len(prompt.token_ids))
        ids += prompt.token_ids + pad
        pos += prompt.positions + pad
        rows = prompt.ent_positions + prompt.word_positions  # padding: the prompt's row 0
        read += [b * length + r for r in rows + [0] * (width - len(rows))]
    # the (B, L) mask of real tokens; one prompt has none to mask
    real = np.arange(length) < np.array(lengths)[:, None] if len(prompts) > 1 else None

    x = T.add(T.gather_rows(params["encoder.tok_emb"], ids),
              T.gather_rows(params["encoder.pos_emb"], pos))
    for i in range(config.depth):
        pre = f"encoder.layer{i}."
        a = T.layer_norm(x, params[pre + "ln1.g"], params[pre + "ln1.b"])
        queries = a
        if i == config.depth - 1:
            x, queries = T.gather_rows(x, read), T.gather_rows(a, read)
        x = T.add(x, _attention(queries, a, real, params, pre, config, dropout, rng))
        b = T.layer_norm(x, params[pre + "ln2.g"], params[pre + "ln2.b"])
        x = T.add(x, _ffn(b, params, pre, dropout, rng))
    x = T.layer_norm(x, params["encoder.final_ln.g"], params["encoder.final_ln.b"])

    starts = [(b * width, len(p.ent_positions)) for b, p in enumerate(prompts)]
    ent = [s + j for s, m in starts for j in range(m)]
    return EncoderOutput(p=T.gather_rows(x, ent), h=x, word_start=[s + m for s, m in starts])
