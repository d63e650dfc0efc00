"""Entity/span embedding heads and the matching score table.

Entity-marker representations are refined by a two-layer feedforward head
into type embeddings q. Each span (i, j) of width <= K is embedded by a
two-layer feedforward head applied to the concatenation [h_i ; h_j], and the
matching probability for (span, type) is the sigmoid of their dot product.
All spans are computed in one batched call, and so are the spans of every
prompt of a batch (their word rows shifted by each prompt's word offset).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import tensor as T
from .errors import ContractError, DimensionError


@dataclass
class ScoreTable:
    """Matching probabilities for one sentence: |spans| x |types|."""
    spans: np.ndarray  # (S, 2), from enumerate_spans
    types: list
    probs: np.ndarray
    logits: np.ndarray = None
    num_words: int = 0
    k: int = 0


def enumerate_spans(num_words, k):
    """All spans of width <= min(k, num_words), ordered by (start, end), in
    the package's one span layout: an (S, 2) int64 array of inclusive
    (start, end) word indices, row i naming row i of a score table."""
    if num_words < 1 or k < 1:
        raise ContractError("num_words and k must be >= 1")
    w = min(k, num_words)
    starts = np.repeat(np.arange(num_words, dtype=np.int64), w)
    ends = starts + np.tile(np.arange(w, dtype=np.int64), num_words)
    keep = ends < num_words
    return np.stack([starts[keep], ends[keep]], axis=1)


def span_count(num_words, k):
    w = min(k, num_words)
    return w * (num_words + 1) - w * (w + 1) // 2


def init_head_params(width, rng, dtype=np.float32, init_scale=0.02):
    """Two feedforward heads: entity (D->D->D) and span (2D->D->D)."""
    d = width

    def w(shape):
        return T.Tensor(rng.normal(0.0, init_scale, size=shape), requires_grad=True, dtype=dtype)

    def zeros(shape):
        return T.Tensor(np.zeros(shape), requires_grad=True, dtype=dtype)

    return {
        "head.ent.w1": w((d, d)), "head.ent.b1": zeros((d,)),
        "head.ent.w2": w((d, d)), "head.ent.b2": zeros((d,)),
        "head.span.w1": w((2 * d, d)), "head.span.b1": zeros((d,)),
        "head.span.w2": w((d, d)), "head.span.b2": zeros((d,)),
    }


def _ffn2(x, params, prefix, dropout, mode, rng):
    hidden = T.relu(T.linear(x, params[prefix + "w1"], params[prefix + "b1"]))
    if mode == "train" and dropout > 0:
        hidden = T.dropout(hidden, dropout, rng)
    return T.linear(hidden, params[prefix + "w2"], params[prefix + "b2"])


def entity_embed(p, params, dropout=0.0, mode="eval", rng=None):
    """Refine entity-marker rows p (M x D) into type embeddings q (M x D)."""
    if p.shape[1] != params["head.ent.w1"].shape[0]:
        raise DimensionError(f"p width {p.shape[1]} != head width {params['head.ent.w1'].shape[0]}")
    return _ffn2(p, params, "head.ent.", dropout, mode, rng)


def span_embed(h, spans, params, dropout=0.0, mode="eval", rng=None):
    """Embed every (start, end) row of ``spans`` as FFN([h_start ; h_end])."""
    pairs = T.concat_cols([T.gather_rows(h, spans[:, 0]), T.gather_rows(h, spans[:, 1])])
    return _ffn2(pairs, params, "head.span.", dropout, mode, rng)


def match_scores(span_emb, q):
    """Logits for every (span, type) pair: span_emb @ q^T, |spans| x M."""
    if span_emb.shape[1] != q.shape[1]:
        raise DimensionError(f"embedding widths disagree: {span_emb.shape} vs {q.shape}")
    return T.matmul(span_emb, T.transpose(q))


def make_score_table(spans, types, logits, num_words, k):
    """Wrap raw logits into a ScoreTable with sigmoid probabilities."""
    logits = np.asarray(logits)
    return ScoreTable(spans=spans, types=list(types),
                      probs=expit(logits), logits=logits,
                      num_words=num_words, k=k)
