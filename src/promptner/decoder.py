"""Greedy span selection over a score table.

Candidates with probability strictly above the threshold are sorted once
and visited best-first (ties: start, end, then type name). Flat mode
accepts a span only if it is token-disjoint from everything accepted so far;
nested mode additionally allows proper containment (at least one differing
endpoint) but never partial overlap, and never two types on the identical
span unless the multi-label escape hatch is enabled.

Accepted spans live in ordered interval structures so each acceptance check
costs O(log n) plus parent-chain walks, keeping the whole pass O(n log n)
in the number of candidates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

_INF = float("inf")


@dataclass(frozen=True)
class EntityMention:
    start: int   # inclusive word index
    end: int     # inclusive word index
    type: str
    score: float = 1.0

    def key(self):
        return (self.start, self.end, self.type)


@dataclass
class DecodeConfig:
    mode: str = "flat"          # "flat" or "nested"
    threshold: float = 0.5      # strict: only probs > threshold are candidates
    allow_multilabel: bool = False

    def __post_init__(self):
        if self.mode not in ("flat", "nested"):
            raise ContractError(f"unknown decode mode {self.mode!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ContractError(f"threshold {self.threshold} outside (0, 1)")


@dataclass
class DecodeStats:
    candidates: int = 0
    pops: int = 0


class _DisjointIntervals:
    """Sorted pairwise-disjoint half-open intervals (flat mode)."""

    def __init__(self):
        self.starts = []
        self.ends = []

    def overlaps(self, x, y):
        i = bisect_right(self.starts, x) - 1
        if i >= 0 and self.ends[i] > x:
            return True
        if i + 1 < len(self.starts) and self.starts[i + 1] < y:
            return True
        return False

    def add(self, x, y):
        i = bisect_right(self.starts, x)
        self.starts.insert(i, x)
        self.ends.insert(i, y)


class _Node:
    __slots__ = ("start", "end", "parent")

    def __init__(self, start, end, parent):
        self.start = start
        self.end = end
        self.parent = parent


class _LaminarIntervals:
    """Half-open intervals forming a laminar family (nested mode).

    Kept sorted by (start asc, end desc) with parent pointers, so the
    innermost accepted interval containing a point is reachable by one
    bisect plus an ancestor walk.
    """

    def __init__(self):
        self.keys = []   # (start, -end)
        self.nodes = []

    def _container(self, p):
        """Innermost accepted interval containing point p, or None."""
        i = bisect_right(self.keys, (p, _INF)) - 1
        if i < 0:
            return None
        node = self.nodes[i]
        while node is not None and node.end <= p:
            node = node.parent
        return node

    def conflicts(self, x, y, allow_identical):
        # identical interval
        i = bisect_left(self.keys, (x, -y))
        if i < len(self.keys) and self.keys[i] == (x, -y) and not allow_identical:
            return True
        # an accepted interval straddling the left edge: starts before x,
        # ends inside (x, y) -> partial overlap
        c = self._container(x)
        while c is not None and c.start >= x:
            c = c.parent
        if c is not None and c.end < y:
            return True
        # an accepted interval straddling the right edge: starts inside
        # (x, y), ends after y -> partial overlap
        c = self._container(y - 1)
        while c is not None and c.end <= y:
            c = c.parent
        if c is not None and c.start > x:
            return True
        return False

    def add(self, x, y):
        # the new interval's parent: innermost accepted container of x that
        # covers [x, y) entirely (compatibility guarantees it exists or None)
        parent = self._container(x)
        while parent is not None and parent.end < y:
            parent = parent.parent
        node = _Node(x, y, parent)
        pos = bisect_left(self.keys, (x, -y))
        self.keys.insert(pos, (x, -y))
        self.nodes.insert(pos, node)
        # re-parent accepted intervals now directly inside the new one
        i = pos + 1
        while i < len(self.keys) and self.keys[i][0] < y:
            child = self.nodes[i]
            if child.end <= y and child.parent is parent:
                child.parent = node
            # skip the child's whole subtree
            i = bisect_right(self.keys, (child.end - 1, _INF), lo=i + 1)


def decode(table, config=None, stats=None):
    """Greedy flat/nested selection; returns accepted EntityMentions.

    ``table`` needs .spans (the (S, 2) array of ``enumerate_spans``), .types
    and .probs (S x |types|). Output order follows acceptance order (best
    score first).
    """
    config = config or DecodeConfig()
    # float64, so the threshold is compared at full precision for any dtype
    probs = np.asarray(table.probs, dtype=np.float64)
    rows, cols = np.nonzero(probs > config.threshold)
    p = probs[rows, cols]
    starts, ends = table.spans[rows, 0], table.spans[rows, 1]
    name_rank = {t: r for r, t in enumerate(sorted(set(table.types)))}
    type_rank = np.array([name_rank[t] for t in table.types], dtype=np.int64)
    order = np.lexsort((type_rank[cols], ends, starts, -p))
    if stats is not None:
        stats.candidates = len(order)
        stats.pops += len(order)

    accepted = []
    accepted_keys = set()
    intervals = _DisjointIntervals() if config.mode == "flat" else _LaminarIntervals()
    for start, end, col, score in zip(starts[order].tolist(), ends[order].tolist(),
                                      cols[order].tolist(), p[order].tolist()):
        x, y = start, end + 1  # half-open
        if config.mode == "flat":
            if (x, y) in accepted_keys:
                ok = config.allow_multilabel
            else:
                ok = not intervals.overlaps(x, y)
        else:
            ok = not intervals.conflicts(x, y, allow_identical=config.allow_multilabel)
        if ok:
            if (x, y) not in accepted_keys:
                intervals.add(x, y)
                accepted_keys.add((x, y))
            accepted.append(EntityMention(start, end, table.types[col], score=score))
    return accepted
