"""Entity/span embedding heads and the matching score table.

Entity-marker representations are refined by a two-layer feedforward head
into type embeddings q. Each span (i, j) of width <= K is embedded by a
two-layer feedforward head applied to the concatenation [h_i ; h_j] (one
``gather_rows`` of the span array), and the matching probability for (span,
type) is the sigmoid of their dot product. All spans are computed in one
batched call, and so are the spans of every prompt of a batch (word rows
shifted by each prompt's word offset), which one product then scores against
every type of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import tensor as T
from .errors import ContractError


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


def head_param_shapes(width):
    """Two feedforward heads: entity (D->D->D) and span (2D->D->D)."""
    d = width
    return {"head.ent.w1": (d, d), "head.ent.b1": (d,), "head.ent.w2": (d, d),
            "head.ent.b2": (d,), "head.span.w1": (2 * d, d), "head.span.b1": (d,),
            "head.span.w2": (d, d), "head.span.b2": (d,)}


def _ffn2(x, params, prefix, dropout, mode, rng):
    hidden = T.relu(T.linear(x, params[prefix + "w1"], params[prefix + "b1"]))
    if mode == "train" and dropout > 0:
        hidden = T.dropout(hidden, dropout, rng)
    return T.linear(hidden, params[prefix + "w2"], params[prefix + "b2"])


def entity_embed(p, params, dropout=0.0, mode="eval", rng=None):
    """Refine entity-marker rows p (M x D) into type embeddings q (M x D)."""
    return _ffn2(p, params, "head.ent.", dropout, mode, rng)


def span_embed(h, spans, params, dropout=0.0, mode="eval", rng=None):
    """Embed every (start, end) row of ``spans`` as FFN([h_start ; h_end])."""
    return _ffn2(T.gather_rows(h, spans), params, "head.span.", dropout, mode, rng)


def match_scores(span_emb, q):
    """Logits for every (span, type) pair: span_emb @ q^T, |spans| x M."""
    return T.matmul(span_emb, T.transpose(q))


def make_score_table(spans, types, logits, num_words, k):
    """Wrap raw logits into a ScoreTable with sigmoid probabilities."""
    logits = np.asarray(logits)
    return ScoreTable(spans=spans, types=list(types),
                      probs=expit(logits), logits=logits,
                      num_words=num_words, k=k)
