"""Greedy decoder vs a brute-force reference, plus structural invariants.

The reference sorts every above-threshold candidate once and accepts with
quadratic pairwise compatibility checks; the production decoder must produce
the identical mention list on random score tables in both modes.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logit

from promptner.decoder import (DecodeConfig, DecodeStats, EntityMention, _logit_cut, _type_ranks,
                               decode)
from promptner.errors import ContractError
from promptner.matcher import ScoreTable, enumerate_spans
from promptner.tensor import sigmoid

# (n_max, k_max, m_max) for random_table: short sentences, and wide ones up
# to the paper's span cap K = 12, where spans reach window edges
SMALL = (8, 4, 3)
WIDE = (40, 12, 4)
SIZES = [pytest.param(mode, size, id=mode + suffix)
         for size, suffix in ((SMALL, ""), (WIDE, "-wide"))
         for mode in ("flat", "nested")]


def random_table(rng, n_max=8, k_max=4, m_max=3, ties=False):
    """A random score table; with ``ties``, logits are small integers, so
    probabilities tie within and across spans, and type names run against
    column order, so a tie between types is broken by name, not column."""
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    m = int(rng.integers(1, m_max + 1))
    spans = enumerate_spans(n, k)
    if ties:
        logits = rng.integers(-2, 3, size=(len(spans), m)).astype(np.float64)
        types = [f"type{m - 1 - i}" for i in range(m)]
    else:
        logits = rng.normal(0.0, 2.0, size=(len(spans), m))
        types = [f"type{i}" for i in range(m)]
    return ScoreTable(n, k, types, logits=logits)


def _disjoint(a, b):
    return a[1] < b[0] or b[1] < a[0]


def _proper_containment(a, b):
    inside = (a[0] >= b[0] and a[1] <= b[1]) or (b[0] >= a[0] and b[1] <= a[1])
    return inside and a != b


def oracle_decode(table, config):
    """Reference: full sort, then quadratic compatibility scan. An identical
    span is neither disjoint nor properly contained, so it is rejected."""
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
            if config.mode == "flat":
                ok = _disjoint(iv, other)
            else:
                ok = _disjoint(iv, other) or _proper_containment(iv, other)
            if not ok:
                break
        if ok:
            accepted.append(EntityMention(start, end, etype, score=-neg_p))
    return accepted


class TestAgainstOracle:
    @pytest.mark.parametrize("mode, size", SIZES)
    def test_random_tables(self, mode, size):
        rng = np.random.default_rng(42)
        config = DecodeConfig(mode=mode)
        for _ in range(300):
            table = random_table(rng, *size)
            assert decode(table, config) == oracle_decode(table, config)

    @pytest.mark.parametrize("mode, size", SIZES)
    def test_tied_tables(self, mode, size):
        rng = np.random.default_rng(19)
        config = DecodeConfig(mode=mode)
        for _ in range(200):
            table = random_table(rng, *size, ties=True)
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

    @pytest.mark.parametrize("mode, size", SIZES)
    def test_kept_span_has_its_best_type(self, mode, size):
        # each kept span carries its most probable type, ties to the smaller
        # name, whatever the column order
        rng = np.random.default_rng(23)
        config = DecodeConfig(mode=mode, threshold=0.3)
        for i in range(200):
            table = random_table(rng, *size, ties=i % 2 == 1)
            row = {tuple(s): si for si, s in enumerate(table.spans.tolist())}
            probs = np.asarray(table.probs)
            for m in decode(table, config):
                neg_p, best = min((-float(q), t) for q, t in
                                  zip(probs[row[(m.start, m.end)]], table.types))
                assert (m.type, m.score) == (best, -neg_p)

    def test_scores_above_threshold_and_sorted(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            table = random_table(rng)
            out = decode(table, DecodeConfig(threshold=0.5))
            assert all(m.score > 0.5 for m in out)
            scores = [m.score for m in out]
            assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("mode, size", SIZES)
    def test_thresholds_nest(self, mode, size):
        # a pair's acceptance depends on the pairs visited before it, which
        # score at least as high: re-decoding a table at a higher threshold
        # keeps exactly the mentions of a lower one that score above it
        rng = np.random.default_rng(29)
        for i in range(150):
            table = random_table(rng, *size, ties=i % 2 == 1)
            low = decode(table, DecodeConfig(mode, 0.2))
            for high in (0.5, 0.8):
                assert decode(table, DecodeConfig(mode, high)) == [
                    m for m in low if m.score > high]

    def test_pops_bounded_by_candidates(self):
        # candidates counts every pair above the threshold; one pair per
        # span with a candidate is visited
        rng = np.random.default_rng(11)
        for i in range(100):
            table = random_table(rng, ties=i % 2 == 1)
            stats = DecodeStats()
            decode(table, DecodeConfig(), stats)
            above = np.asarray(table.probs) > 0.5
            assert stats.candidates == np.count_nonzero(above)
            assert stats.pops == np.count_nonzero(above.any(axis=1))


class TestHandCases:
    @staticmethod
    def _table(num_words, k, entries, types):
        spans = enumerate_spans(num_words, k)
        idx = {tuple(s): i for i, s in enumerate(spans.tolist())}
        col = {t: j for j, t in enumerate(types)}
        logits = np.full((len(spans), len(types)), -9.0)
        for start, end, typ, prob in entries:
            logits[idx[(start, end)], col[typ]] = logit(prob)
        return ScoreTable(num_words, k, types, logits=logits)

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
        table = ScoreTable(1, 1, ["t"], logits=np.array([[0.0]]))
        assert table.probs[0, 0] == 0.5
        assert decode(table, DecodeConfig(threshold=0.5)) == []

    def test_empty_when_all_below(self):
        table = ScoreTable(3, 2, ["t"], logits=np.full((5, 1), -5.0))
        assert decode(table) == []

    def test_nested_allows_containment_not_overlap(self):
        spans = enumerate_spans(4, 4)
        logits = np.full((len(spans), 1), -5.0)
        idx = {tuple(s): i for i, s in enumerate(spans.tolist())}
        logits[idx[(0, 3)], 0] = 4.0   # outer
        logits[idx[(1, 2)], 0] = 3.0   # nested inside -> kept in nested mode
        logits[idx[(2, 3)], 0] = 2.0   # partially overlaps (1,2)'s container? no:
        # (2,3) is inside (0,3) but overlaps (1,2) partially -> rejected
        table = ScoreTable(4, 4, ["t"], logits=logits)
        flat = decode(table, DecodeConfig(mode="flat"))
        nested = decode(table, DecodeConfig(mode="nested"))
        assert [(m.start, m.end) for m in flat] == [(0, 3)]
        assert [(m.start, m.end) for m in nested] == [(0, 3), (1, 2)]

    def test_tie_break_is_positional_then_type(self):
        logits = np.zeros((3, 2)) + 2.0  # all identical probabilities
        table = ScoreTable(3, 1, ["b", "a"], logits=logits)
        out = decode(table, DecodeConfig(mode="flat"))
        assert [(m.start, m.end, m.type) for m in out] == [
            (0, 0, "a"), (1, 1, "a"), (2, 2, "a")]

    @pytest.mark.parametrize("mode", ["flat", "nested"])
    def test_span_above_threshold_for_two_types_keeps_the_better(self, mode):
        table = ScoreTable(1, 1, ["b", "a"], logits=np.array([[2.0, 3.0]]))
        out = decode(table, DecodeConfig(mode=mode))
        assert [(m.start, m.end, m.type) for m in out] == [(0, 0, "a")]

    def test_multilabel_option_is_gone(self):
        with pytest.raises(TypeError):
            DecodeConfig(allow_multilabel=True)
        with pytest.raises(TypeError):
            DecodeConfig("flat", 0.5, True)

    def test_mentions_carry_python_scalars(self):
        table = random_table(np.random.default_rng(5), n_max=6)
        for m in decode(table, DecodeConfig(threshold=0.1)):
            assert type(m.start) is int and type(m.end) is int
            assert type(m.score) is float and type(m.type) is str

    def test_bad_config_rejected(self):
        with pytest.raises(ContractError):
            DecodeConfig(mode="best")
        with pytest.raises(ContractError):
            DecodeConfig(threshold=0.0)
        with pytest.raises(ContractError):
            DecodeConfig(threshold=1.0)


def decode_against_oracle(table, config):
    """Decoded mentions and candidate count, checked against ``oracle_decode``
    and the count of probs above the threshold; decoding computes no probs."""
    stats = DecodeStats()
    out = decode(table, config, stats)
    assert "probs" not in vars(table)
    assert out == oracle_decode(table, config)
    assert stats.candidates == np.count_nonzero(table.probs.astype(np.float64) > config.threshold)
    return out, stats.candidates


class TestLogitsPath:
    """A table is decoded from its logits: the sigmoid is taken on the logits
    above a cut only. Its candidates, order and scores must be those of the
    probs-space reference ``oracle_decode``."""

    @staticmethod
    def one_word_spans(logits):
        # one type over one-word spans: flat decoding accepts every candidate
        return ScoreTable(len(logits), 1, ["t"], logits=np.asarray(logits)[:, None])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p0", [1e-3, 0.3, 0.5, 0.7, 0.999, 1 - 2.0 ** -23])
    def test_probabilities_rounding_onto_the_threshold(self, dtype, p0):
        # logits a quarter of a probability step of the dtype apart around
        # log(p0 / (1 - p0)): their rounded sigmoids run through the dtype's
        # values next to p0. The thresholds are one of those values, which
        # some pairs round onto exactly, and the float64 numbers either side
        step = np.spacing(dtype(p0)) / 4 / (p0 * (1 - p0))
        logits = (logit(p0) + np.arange(-120, 121) * step).astype(dtype)
        probs = self.one_word_spans(logits).probs.astype(np.float64)
        values = np.unique(probs)
        on = float(values[len(values) // 2])
        assert np.count_nonzero(probs == on) >= 1 and len(values) > 10
        for t in (np.nextafter(on, 0.0), on, np.nextafter(on, 1.0)):
            for mode in ("flat", "nested"):
                decode_against_oracle(self.one_word_spans(logits), DecodeConfig(mode, t))

    def test_threshold_near_one_keeps_saturated_float32_pairs(self):
        # float32 sigmoids round to exactly 1 from a logit of ~16.6, far
        # below the logit of t = 1 - 1e-12, ~27.6
        t = 1 - 1e-12
        logits = np.linspace(16.0, 25.0, 91).astype(np.float32)
        table = self.one_word_spans(logits)
        out, candidates = decode_against_oracle(table, DecodeConfig("flat", t))
        assert 0 < candidates < len(logits) and 20 in [m.start for m in out]  # logit 18

    @pytest.mark.parametrize("mode", ["flat", "nested"])
    def test_random_tables_match_the_oracle(self, mode):
        # criterion 3's tables, every other one with tied probabilities
        rng = np.random.default_rng(31)
        for i in range(250):
            table = random_table(rng, *WIDE, ties=i % 2 == 1)
            decode_against_oracle(table, DecodeConfig(mode, float(rng.choice([0.3, 0.5, 0.8]))))

    def test_decoding_leaves_the_probs_uncomputed(self):
        table = random_table(np.random.default_rng(32), *WIDE)
        assert decode(table, DecodeConfig(threshold=0.2))
        assert "probs" not in vars(table)
        assert np.array_equal(table.probs, sigmoid(table.logits))

    def test_per_call_constants_are_shared_and_read_only(self):
        ranks = _type_ranks(("b", "a", "b"))
        assert ranks.tolist() == [1, 0, 1] and not ranks.flags.writeable
        assert _type_ranks(("b", "a", "b")) is ranks
        cut = _logit_cut(0.5, np.dtype(np.float32))
        assert cut.dtype == np.float32 and sigmoid(cut) <= 0.5
        assert _logit_cut(0.5, np.dtype(np.float32)) is cut


def test_nested_decode_scaling():
    """Criterion 10's bound in nested mode: per-candidate time < 15x per decade."""
    rng = np.random.default_rng(23)
    times = {}
    for target in (1_000, 10_000):
        n = target // 10  # k=12 capped spans: roughly 12N - 66 candidates
        spans = enumerate_spans(n, 12)
        logits = rng.normal(2.0, 0.5, size=(len(spans), 1))  # nearly all > 0.5
        table = ScoreTable(n, 12, ["t"], logits=logits)
        stats = DecodeStats()
        t0 = time.perf_counter()
        decode(table, DecodeConfig(mode="nested"), stats)
        times[target] = (time.perf_counter() - t0) / max(stats.candidates, 1)
    assert times[10_000] / times[1_000] < 15
