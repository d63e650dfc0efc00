"""Exact-match micro precision / recall / F1 over entity mentions.

A prediction counts as a true positive only when a gold mention with the
identical (start, end, type) triple exists in the same sentence. Mentions
are compared as sets per sentence after deduplication, with type strings
normalized the same way the tokenizer normalizes text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractError
from .tokenizer import normalize


@dataclass
class TypeCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self):
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self):
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def to_dict(self):
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn,
                "precision": self.precision, "recall": self.recall, "f1": self.f1}


@dataclass
class EvalReport(TypeCounts):
    """Micro counts and scores over all types, and the counts of each type."""
    per_type: dict = field(default_factory=dict)

    def to_dict(self):
        return {**super().to_dict(),
                "per_type": {t: c.to_dict() for t, c in sorted(self.per_type.items())}}


def _triples(mentions):
    return {(m.start, m.end, normalize(m.type)) for m in mentions}


def score(pred, gold):
    """Exact-match micro scores; ``pred`` and ``gold`` are per-sentence
    mention collections aligned by index."""
    if len(pred) != len(gold):
        raise ContractError(f"misaligned corpora: {len(pred)} predicted vs {len(gold)} gold sentences")

    per_type = {}
    for pred_sent, gold_sent in zip(pred, gold):
        p = _triples(pred_sent)
        g = _triples(gold_sent)
        for triple in p & g:
            per_type.setdefault(triple[2], TypeCounts()).tp += 1
        for triple in p - g:
            per_type.setdefault(triple[2], TypeCounts()).fp += 1
        for triple in g - p:
            per_type.setdefault(triple[2], TypeCounts()).fn += 1

    return EvalReport(tp=sum(c.tp for c in per_type.values()),
                      fp=sum(c.fp for c in per_type.values()),
                      fn=sum(c.fn for c in per_type.values()), per_type=per_type)
