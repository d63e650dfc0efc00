"""Entity/span heads and the matching score table.

Entity-marker representations are refined by a two-layer feedforward head
into type embeddings q. GLiNER embeds each span (i, j) of width <= K by a
two-layer feedforward head on the concatenation [h_i ; h_j] and scores it
against a type by the sigmoid of their dot product. Neither the
concatenation nor the span embedding is built here: ``tensor.span_endpoints``
computes the head's first layer by endpoint, and ``tensor.span_scores`` moves
its second layer to the type side, (r w2 + b2) q^T = r (w2 q^T) + q b2 for
the hidden rows r. All spans are computed in one batched call, and so are
the spans of every prompt of a batch (word indices shifted to the prompt's
first word row), which one product then scores against every type of it.
Each head's hidden rows take dropout at a given rate, 0 outside training.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from . import tensor as T
from .errors import ContractError


class ScoreTable:
    """Matching scores of every span of ``enumerate_spans(num_words, k)``, the
    table's ``spans``, against every type: exactly one |spans| x |types| array,
    a model's ``logits`` or ``probs`` read from a file. A logits table's probs
    are their sigmoid, computed on first read."""

    def __init__(self, num_words, k, types, logits=None, probs=None):
        if (logits is None) == (probs is None):
            raise ContractError("a score table holds exactly one of logits and probs")
        self.num_words, self.k, self.types = num_words, k, list(types)
        self.spans = enumerate_spans(num_words, k)
        scores = np.asarray(probs if logits is None else logits)
        if scores.shape != (len(self.spans), len(self.types)):
            raise ContractError(f"scores of shape {scores.shape} for {len(self.spans)} "
                                f"spans x {len(self.types)} types")
        self.logits = None if logits is None else scores
        if logits is None:
            self.probs = scores

    @cached_property
    def probs(self):
        return T.sigmoid(self.logits)


@lru_cache(maxsize=2**10)
def enumerate_spans(num_words, k):
    """All spans of width <= min(k, num_words), ordered by (start, end), in
    the package's one span layout: an (S, 2) int64 array of inclusive
    (start, end) word indices, row i naming row i of a score table. The
    array is read-only and shared: it is built once per (num_words, k), in a
    cache of the 2**10 most recent pairs."""
    if num_words < 1 or k < 1:
        raise ContractError("num_words and k must be >= 1")
    w = min(k, num_words)
    starts = np.repeat(np.arange(num_words, dtype=np.int64), w)
    ends = starts + np.tile(np.arange(w, dtype=np.int64), num_words)
    keep = ends < num_words
    spans = np.stack([starts[keep], ends[keep]], axis=1)
    spans.flags.writeable = False
    return spans


def span_count(num_words, k):
    w = min(k, num_words)
    return w * (num_words + 1) - w * (w + 1) // 2


def head_param_shapes(width):
    """Two feedforward heads: entity (D->D->D) and span (2D->D->D)."""
    d = width
    return {"head.ent.w1": (d, d), "head.ent.b1": (d,), "head.ent.w2": (d, d),
            "head.ent.b2": (d,), "head.span.w1": (2 * d, d), "head.span.b1": (d,),
            "head.span.w2": (d, d), "head.span.b2": (d,)}


def entity_embed(p, params, dropout=0.0, rng=None):
    """Refine entity-marker rows p (M x D) into type embeddings q (M x D)."""
    hidden = T.relu(T.linear(p, params["head.ent.w1"], params["head.ent.b1"]))
    return T.linear(T.dropout(hidden, dropout, rng), params["head.ent.w2"], params["head.ent.b2"])


def span_embed(h, spans, params, dropout=0.0, rng=None):
    """The span head's hidden rows r = relu([h_start ; h_end] w1 + b1), one
    per (start, end) row of ``spans`` into the rows of h; its second layer
    is applied by ``match_scores``, so no span embedding is built."""
    hidden = T.span_endpoints(h, spans, params["head.span.w1"], params["head.span.b1"])
    return T.dropout(hidden, dropout, rng)


def match_scores(span_hidden, q, params):
    """Logits for every (span, type) pair, |spans| x M: the span embeddings
    (r w2 + b2) of the hidden rows r of ``span_embed`` dotted with the type
    embeddings q, as one ``span_scores`` op."""
    return T.span_scores(span_hidden, params["head.span.w2"], params["head.span.b2"], q)

