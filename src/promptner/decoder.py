"""Greedy span selection over a score table.

Candidates with probability strictly above the threshold are sorted once
and visited best-first (ties: start, end, then type name); only the few
logits above a cut take the sigmoid. Flat mode accepts a span only if it is
token-disjoint from everything accepted so far; nested mode additionally
allows proper containment (at least one differing endpoint) but never
partial overlap. A kept span has one type.

Only each span's first pair in that order, its best type (ties: the smaller
name), is visited. This is exact: whether a span is accepted depends on the
accepted spans only, never on its type, and those only grow, so once the
first pair is accepted or rejected, every later pair of the span is rejected.

Acceptance checks read per-position arrays over the words a candidate
covers: flat mode a covered-word mask, nested mode the farthest end of an
accepted span per start and the farthest start per end. A candidate is at
most K words wide, so each check costs O(K) and the pass is O(n K) after the
O(n log n) sort of the n candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractError, check_fields, ruled
from .tensor import sigmoid


@dataclass(frozen=True)
class EntityMention:
    start: int   # inclusive word index
    end: int     # inclusive word index
    type: str
    score: float = 1.0

    def key(self):
        return (self.start, self.end, self.type)


def check_mention(m, n=None):
    """``m`` if its indices are integers with 0 <= start <= end (and end < ``n``,
    the sentence's word count, when given) and its type is a non-empty string."""
    if not all(isinstance(i, (int, np.integer)) and type(i) is not bool for i in (m.start, m.end)):
        raise ContractError(f"span ({m.start!r},{m.end!r}) indices must be integers")
    if not 0 <= m.start <= m.end or (n is not None and m.end >= n):
        raise ContractError(f"span ({m.start},{m.end}) out of bounds"
                            + (f" for {n} words" if n is not None else ""))
    if not (isinstance(m.type, str) and m.type):
        raise ContractError(f"entity type {m.type!r} is not a non-empty string")
    return m


@dataclass
class DecodeConfig:
    mode: str = ruled("flat", ("flat", "nested"))
    threshold: float = ruled(0.5, "in (0, 1)")  # strict: only probs > threshold are candidates

    def __post_init__(self):
        check_fields(self)


@dataclass
class DecodeStats:
    candidates: int = 0
    pops: int = 0


@lru_cache(maxsize=2**10)
def _logit_cut(t, dtype):
    """An immutable numpy scalar c of ``dtype`` with sigmoid(c) <= t: as
    ``sigmoid`` is monotone (an exhaustive pass over every finite float32
    found no step down), no logit at or below c is a candidate. Float32's
    sigmoid is 1 from ~16.6, below log(t / (1 - t)) for t within 2^-24 of 1:
    there c steps down until its sigmoid is <= t."""
    cut = np.asarray(math.log(t / (1.0 - t)) - 1e-3, dtype=dtype)
    while float(sigmoid(cut)) > t:
        cut = cut - 1
    return dtype.type(cut)


@lru_cache(maxsize=2**10)
def _type_ranks(types):
    """Each name's rank among the sorted names of the tuple ``types``, the
    tie-break on type, as a read-only int64 array."""
    name_rank = {name: r for r, name in enumerate(sorted(set(types)))}
    ranks = np.array([name_rank[name] for name in types], dtype=np.int64)
    ranks.flags.writeable = False
    return ranks


def decode(table, config=None, stats=None):
    """Greedy flat/nested selection; returns accepted EntityMentions.

    ``table`` is a ScoreTable, decoded from its logits: the sigmoid is taken
    of the logits above a cut only. Output order is acceptance order (best
    score first). ``stats``, when given, gets the number of pairs above the
    threshold (``candidates``) and adds the number of pairs visited to ``pops``
    (one per span, so pops <= candidates).
    """
    config = config or DecodeConfig()
    t = config.threshold
    logits = table.logits
    idx = np.flatnonzero(logits > _logit_cut(t, logits.dtype))
    p = sigmoid(logits.ravel()[idx]).astype(np.float64)  # float64: t compared at full precision
    idx, p = idx[p > t], p[p > t]
    rows, cols = np.divmod(idx, logits.shape[1])
    starts, ends = table.spans[rows, 0], table.spans[rows, 1]
    order = np.lexsort((_type_ranks(tuple(table.types))[cols], ends, starts, -p))
    candidates = len(order)
    order = order[np.sort(np.unique(rows[order], return_index=True)[1])]  # each span's first pair
    if stats is not None:
        stats.candidates = candidates
        stats.pops += len(order)

    accepted = []
    flat = config.mode == "flat"
    # per-position state over half-open positions 0 .. max end + 1
    size = int(ends.max()) + 2 if len(ends) else 1
    covered = bytearray(size)   # 1 where an accepted span covers the word
    far_end = [0] * size        # far_end[s]: largest y of an accepted [s, y)
    far_start = [size] * size   # far_start[e]: smallest x of an accepted [x, e)
    for start, end, col, score in zip(starts[order].tolist(), ends[order].tolist(),
                                      cols[order].tolist(), p[order].tolist()):
        x, y = start, end + 1  # half-open
        if flat:
            if 1 in covered[x:y]:
                continue
            covered[x:y] = b"\x01" * (y - x)
        else:
            # partial overlap: an accepted span starts strictly inside and
            # ends past y, or ends strictly inside and starts before x; a
            # one-word span cannot be partially overlapped
            if x + 1 < y and (max(far_end[x + 1:y]) > y or min(far_start[x + 1:y]) < x):
                continue
            far_end[x] = max(far_end[x], y)
            far_start[y] = min(far_start[y], x)
        accepted.append(EntityMention(start, end, table.types[col], score=score))
    return accepted
