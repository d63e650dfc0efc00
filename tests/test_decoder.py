"""Greedy decoder vs a brute-force reference, plus structural invariants.

The reference sorts every above-threshold candidate once and accepts with
quadratic pairwise compatibility checks; the production decoder must produce
the identical mention list on random score tables in both modes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from promptner.decoder import DecodeConfig, DecodeStats, EntityMention, decode
from promptner.errors import ContractError
from promptner.matcher import enumerate_spans, make_score_table


def random_table(rng, n_max=8, k_max=4, m_max=3):
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    m = int(rng.integers(1, m_max + 1))
    spans = enumerate_spans(n, k)
    logits = rng.normal(0.0, 2.0, size=(len(spans), m))
    return make_score_table(spans, [f"type{i}" for i in range(m)], logits,
                            num_words=n, k=k)


def _disjoint(a, b):
    return a[1] < b[0] or b[1] < a[0]


def _proper_containment(a, b):
    inside = (a[0] >= b[0] and a[1] <= b[1]) or (b[0] >= a[0] and b[1] <= a[1])
    return inside and a != b


def oracle_decode(table, config):
    """Reference: full sort, then quadratic compatibility scan."""
    cands = []
    for si, (start, end) in enumerate(table.spans.tolist()):
        for ti, etype in enumerate(table.types):
            p = float(table.probs[si][ti])
            if p > config.threshold:
                cands.append((-p, start, end, etype))
    cands.sort()
    accepted = []
    for neg_p, start, end, etype in cands:
        iv = (start, end)
        ok = True
        for m in accepted:
            other = (m.start, m.end)
            if iv == other:
                ok = config.allow_multilabel
            elif config.mode == "flat":
                ok = _disjoint(iv, other)
            else:
                ok = _disjoint(iv, other) or _proper_containment(iv, other)
            if not ok:
                break
        if ok:
            accepted.append(EntityMention(start, end, etype, score=-neg_p))
    return accepted


class TestAgainstOracle:
    @pytest.mark.parametrize("mode", ["flat", "nested"])
    def test_random_tables(self, mode):
        rng = np.random.default_rng(42)
        config = DecodeConfig(mode=mode)
        for _ in range(300):
            table = random_table(rng)
            assert decode(table, config) == oracle_decode(table, config)

    @pytest.mark.parametrize("mode", ["flat", "nested"])
    def test_multilabel_tables(self, mode):
        rng = np.random.default_rng(7)
        config = DecodeConfig(mode=mode, allow_multilabel=True)
        for _ in range(200):
            table = random_table(rng)
            assert decode(table, config) == oracle_decode(table, config)

    @given(st.integers(0, 2**31 - 1), st.sampled_from(["flat", "nested"]))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_seeds(self, seed, mode):
        table = random_table(np.random.default_rng(seed))
        config = DecodeConfig(mode=mode)
        assert decode(table, config) == oracle_decode(table, config)


class TestInvariants:
    @pytest.mark.parametrize("mode", ["flat", "nested"])
    def test_structure(self, mode):
        rng = np.random.default_rng(3)
        config = DecodeConfig(mode=mode)
        for _ in range(100):
            table = random_table(rng)
            out = decode(table, config)
            ivs = [(m.start, m.end) for m in out]
            assert len(set(ivs)) == len(ivs)  # one label per span
            for i, a in enumerate(ivs):
                for b in ivs[:i]:
                    if mode == "flat":
                        assert _disjoint(a, b)
                    else:
                        assert _disjoint(a, b) or _proper_containment(a, b)

    def test_scores_above_threshold_and_sorted(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            table = random_table(rng)
            out = decode(table, DecodeConfig(threshold=0.5))
            assert all(m.score > 0.5 for m in out)
            scores = [m.score for m in out]
            assert scores == sorted(scores, reverse=True)

    def test_pops_bounded_by_candidates(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            table = random_table(rng)
            stats = DecodeStats()
            decode(table, DecodeConfig(), stats)
            assert stats.pops <= stats.candidates


class TestHandCases:
    @staticmethod
    def _table(num_words, k, entries, types):
        from scipy.special import logit
        spans = enumerate_spans(num_words, k)
        idx = {tuple(s): i for i, s in enumerate(spans.tolist())}
        col = {t: j for j, t in enumerate(types)}
        logits = np.full((len(spans), len(types)), -9.0)
        for start, end, typ, prob in entries:
            logits[idx[(start, end)], col[typ]] = logit(prob)
        return make_score_table(spans, types, logits, num_words=num_words, k=k)

    def test_flat_drops_overlap_keeps_disjoint(self):
        table = self._table(6, 3, [(0, 2, "a", 0.9), (1, 3, "b", 0.8),
                                   (4, 5, "c", 0.6)], ["a", "b", "c"])
        out = decode(table, DecodeConfig(mode="flat"))
        assert [(m.start, m.end, m.type) for m in out] == [
            (0, 2, "a"), (4, 5, "c")]

    def test_nested_keeps_contained_drops_partial(self):
        table = self._table(5, 4, [(0, 3, "a", 0.9), (1, 2, "b", 0.8),
                                   (2, 4, "c", 0.7)], ["a", "b", "c"])
        out = decode(table, DecodeConfig(mode="nested"))
        # (1,2) sits fully inside (0,3); (2,4) partially overlaps both -> dropped
        assert [(m.start, m.end, m.type) for m in out] == [
            (0, 3, "a"), (1, 2, "b")]


class TestEdgeCases:
    def test_threshold_is_strict(self):
        spans = enumerate_spans(1, 1)
        table = make_score_table(spans, ["t"], np.array([[0.0]]), num_words=1, k=1)
        assert table.probs[0, 0] == 0.5
        assert decode(table, DecodeConfig(threshold=0.5)) == []

    def test_empty_when_all_below(self):
        spans = enumerate_spans(3, 2)
        table = make_score_table(spans, ["t"], np.full((len(spans), 1), -5.0),
                                 num_words=3, k=2)
        assert decode(table) == []

    def test_nested_allows_containment_not_overlap(self):
        spans = enumerate_spans(4, 4)
        logits = np.full((len(spans), 1), -5.0)
        idx = {tuple(s): i for i, s in enumerate(spans.tolist())}
        logits[idx[(0, 3)], 0] = 4.0   # outer
        logits[idx[(1, 2)], 0] = 3.0   # nested inside -> kept in nested mode
        logits[idx[(2, 3)], 0] = 2.0   # partially overlaps (1,2)'s container? no:
        # (2,3) is inside (0,3) but overlaps (1,2) partially -> rejected
        table = make_score_table(spans, ["t"], logits, num_words=4, k=4)
        flat = decode(table, DecodeConfig(mode="flat"))
        nested = decode(table, DecodeConfig(mode="nested"))
        assert [(m.start, m.end) for m in flat] == [(0, 3)]
        assert [(m.start, m.end) for m in nested] == [(0, 3), (1, 2)]

    def test_tie_break_is_positional_then_type(self):
        spans = enumerate_spans(3, 1)
        logits = np.zeros((3, 2)) + 2.0  # all identical probabilities
        table = make_score_table(spans, ["b", "a"], logits, num_words=3, k=1)
        out = decode(table, DecodeConfig(mode="flat"))
        assert [(m.start, m.end, m.type) for m in out] == [
            (0, 0, "a"), (1, 1, "a"), (2, 2, "a")]

    def test_multilabel_keeps_identical_span_twice(self):
        spans = enumerate_spans(1, 1)
        table = make_score_table(spans, ["a", "b"], np.array([[3.0, 2.0]]),
                                 num_words=1, k=1)
        both = decode(table, DecodeConfig(allow_multilabel=True))
        assert [(m.type) for m in both] == ["a", "b"]
        one = decode(table, DecodeConfig())
        assert [(m.type) for m in one] == ["a"]

    def test_mentions_carry_python_scalars(self):
        table = random_table(np.random.default_rng(5), n_max=6)
        for m in decode(table, DecodeConfig(threshold=0.1)):
            assert type(m.start) is int and type(m.end) is int
            assert type(m.score) is float and type(m.type) is str

    def test_float32_probs_compared_at_full_precision(self):
        # float32(0.3) exceeds the float64 threshold 0.3 but equals
        # float32(0.3): the comparison must not happen in float32
        spans = enumerate_spans(2, 1)
        table = make_score_table(spans, ["t"], np.zeros((2, 1)), num_words=2, k=1)
        table.probs = np.array([[0.3], [0.2]], dtype=np.float32)
        config = DecodeConfig(threshold=0.3)
        out = decode(table, config)
        assert out == oracle_decode(table, config)
        assert [(m.start, m.end) for m in out] == [(0, 0)]

    def test_bad_config_rejected(self):
        with pytest.raises(ContractError):
            DecodeConfig(mode="best")
        with pytest.raises(ContractError):
            DecodeConfig(threshold=0.0)
        with pytest.raises(ContractError):
            DecodeConfig(threshold=1.0)
