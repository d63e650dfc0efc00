import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import expit

from promptner import tensor as T
from promptner.errors import ContractError, DimensionError
from promptner.encoder import init_from_shapes
from promptner.matcher import (ScoreTable, enumerate_spans, entity_embed, head_param_shapes,
                               match_scores, span_count, span_embed)


def tensor(arr):
    return T.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True,
                    dtype=np.float64)


class TestEnumerateSpans:
    def test_small_exhaustive(self):
        spans = enumerate_spans(3, 2)
        assert spans.dtype == np.int64
        assert spans.tolist() == [[0, 0], [0, 1], [1, 1], [1, 2], [2, 2]]

    def test_single_word(self):
        assert enumerate_spans(1, 12).tolist() == [[0, 0]]

    def test_k_larger_than_sentence(self):
        # cap at sentence length: all N(N+1)/2 spans
        assert len(enumerate_spans(4, 100)) == 10

    def test_ordering(self):
        spans = enumerate_spans(10, 4)
        keys = [tuple(s) for s in spans.tolist()]
        assert keys == sorted(keys)

    def test_widths_capped(self):
        assert all(end - start + 1 <= 3 for start, end in enumerate_spans(20, 3))

    def test_arithmetic_spot_check(self):
        assert span_count(20, 12) == sum(21 - w for w in range(1, 13)) == 174
        assert len(enumerate_spans(20, 12)) == 174

    def test_cached_and_read_only(self):
        # one shared array per (num_words, k); writing to it raises
        spans = enumerate_spans(7, 3)
        assert enumerate_spans(7, 3) is spans
        assert enumerate_spans(7, 4) is not spans
        with pytest.raises(ValueError):
            spans[0, 0] = 5

    def test_invalid_args(self):
        with pytest.raises(ContractError):
            enumerate_spans(0, 12)
        with pytest.raises(ContractError):
            enumerate_spans(5, 0)

    @given(st.integers(1, 300), st.integers(1, 12))
    def test_count_formula(self, n, k):
        w = min(k, n)
        expected = sum(n - width + 1 for width in range(1, w + 1))
        assert span_count(n, k) == expected
        assert len(enumerate_spans(n, k)) == expected


class TestHeads:
    def test_param_shapes(self):
        params = init_from_shapes(head_param_shapes(8), np.random.default_rng(0))
        assert params["head.span.w1"].shape == (16, 8)
        assert params["head.ent.w1"].shape == (8, 8)
        assert all(n.startswith("head.") for n in params)

    def test_entity_embed_shape(self):
        params = init_from_shapes(head_param_shapes(8), np.random.default_rng(0), dtype=np.float64)
        q = entity_embed(tensor(np.random.default_rng(1).normal(size=(3, 8))), params)
        assert q.shape == (3, 8)

    def test_zero_weights_give_zero_embeddings(self):
        params = init_from_shapes(head_param_shapes(4), np.random.default_rng(0), dtype=np.float64)
        for p in params.values():
            p.data[:] = 0.0
        q = entity_embed(tensor(np.random.default_rng(1).normal(size=(2, 4))), params)
        assert np.all(q.data == 0.0)

    def test_identity_layers_pass_positive_inputs_through(self):
        # w1 = w2 = I, biases 0: relu is the identity on positive inputs,
        # so q == p for strictly positive p
        params = init_from_shapes(head_param_shapes(3), np.random.default_rng(0), dtype=np.float64)
        for name in ("head.ent.w1", "head.ent.w2"):
            params[name].data[:] = np.eye(3)
        for name in ("head.ent.b1", "head.ent.b2"):
            params[name].data[:] = 0.0
        p = tensor([[0.5, 1.0, 2.0]])
        assert np.allclose(entity_embed(p, params).data, p.data)

    def test_batched_span_embed_matches_per_span_loop(self):
        params = init_from_shapes(head_param_shapes(4), np.random.default_rng(0), dtype=np.float64)
        h = tensor(np.random.default_rng(5).normal(size=(6, 4)))
        spans = enumerate_spans(6, 3)
        batched = span_embed(h, spans, params).data
        for i in range(len(spans)):
            single = span_embed(h, spans[i:i + 1], params).data
            # blas accumulates batched vs single-row matmuls differently,
            # so allow last-bit rounding differences
            assert np.allclose(batched[i], single[0], rtol=1e-12, atol=1e-15)

    def test_entity_embed_width_mismatch(self):
        params = init_from_shapes(head_param_shapes(8), np.random.default_rng(0))
        with pytest.raises(DimensionError):
            entity_embed(tensor(np.zeros((2, 5))), params)

    def test_span_embed_uses_endpoints(self):
        params = init_from_shapes(head_param_shapes(4), np.random.default_rng(0), dtype=np.float64)
        h = tensor(np.random.default_rng(2).normal(size=(5, 4)))
        spans = np.array([[0, 2], [1, 1]])
        out = span_embed(h, spans, params)
        assert out.shape == (2, 4)
        # a span is a function of (h_start, h_end) only: identical endpoints
        # from a different span list give identical embeddings
        again = span_embed(h, np.array([[1, 1], [0, 2]]), params)
        assert np.allclose(out.data[0], again.data[1])

    def test_span_embed_bounds(self):
        params = init_from_shapes(head_param_shapes(4), np.random.default_rng(0))
        with pytest.raises(ContractError):
            span_embed(tensor(np.zeros((2, 4))), np.array([[0, 5]]), params)

    def test_match_scores_is_dot_product(self):
        # w2 = I and b2 = 0: the span embedding is the hidden row itself
        params = init_from_shapes(head_param_shapes(2), np.random.default_rng(0), dtype=np.float64)
        params["head.span.w2"].data[:] = np.eye(2)
        params["head.span.b2"].data[:] = 0.0
        r = tensor([[1.0, 0.0], [0.0, 2.0]])
        q = tensor([[3.0, 4.0]])
        out = match_scores(r, q, params)
        assert np.allclose(out.data, [[3.0], [8.0]])

    def test_match_scores_is_the_span_embedding_dot_product(self):
        # logits = (r w2 + b2) q^T, the second span layer applied per span
        params = init_from_shapes(head_param_shapes(4), np.random.default_rng(0), dtype=np.float64)
        rng = np.random.default_rng(6)
        r, q = tensor(np.abs(rng.normal(size=(5, 4)))), tensor(rng.normal(size=(3, 4)))
        emb = r.data @ params["head.span.w2"].data + params["head.span.b2"].data
        out = match_scores(r, q, params)
        assert out.shape == (5, 3)
        assert np.allclose(out.data, emb @ q.data.T, rtol=1e-12, atol=1e-15)

    def test_match_scores_width_mismatch(self):
        params = init_from_shapes(head_param_shapes(4), np.random.default_rng(0))
        with pytest.raises(DimensionError):
            match_scores(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 4))), params)
        with pytest.raises(DimensionError):
            match_scores(tensor(np.zeros((2, 4))), tensor(np.zeros((2, 3))), params)


class TestScoreTable:
    def test_probs_are_sigmoid_of_logits(self):
        logits = np.array([[0.0], [2.0], [-2.0]])
        table = ScoreTable(2, 2, ["person"], logits=logits)
        assert np.allclose(table.probs, expit(logits))
        assert table.probs[0, 0] == 0.5

    def test_negating_a_type_column_flips_its_probs(self):
        rng = np.random.default_rng(3)
        params = init_from_shapes(head_param_shapes(5), rng, dtype=np.float64)
        r = tensor(rng.normal(size=(4, 5)))
        q = tensor(rng.normal(size=(2, 5)))
        base = match_scores(r, q, params).data
        q_neg = tensor(np.concatenate([q.data[:1], -q.data[1:]]))
        flipped = match_scores(r, q_neg, params).data
        assert np.allclose(expit(flipped[:, 1]), 1.0 - expit(base[:, 1]))
        assert np.allclose(flipped[:, 0], base[:, 0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lazy_probs_are_bit_equal_to_the_sigmoid(self, dtype):
        logits = np.random.default_rng(4).normal(0.0, 8.0, size=(9, 3)).astype(dtype)
        table = ScoreTable(4, 3, ["a", "b", "c"], logits=logits)
        assert "probs" not in vars(table)
        probs = table.probs
        assert probs.dtype == dtype and np.array_equal(probs, T.sigmoid(logits))
        assert table.probs is probs  # computed once

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturated_logits_give_probs_zero_and_one(self, dtype):
        # far past the dtype's range of exp, with no overflow warning
        logits = np.array([[-1e4], [-800.0], [800.0], [1e4]], dtype=dtype)
        table = ScoreTable(4, 1, ["t"], logits=logits)
        assert table.probs.dtype == dtype
        assert table.probs[:, 0].tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_types_are_copied(self):
        types = ("a", "b")
        table = ScoreTable(2, 1, types, logits=np.zeros((2, 2)))
        assert table.types == ["a", "b"]
        names = ["a", "b"]
        table = ScoreTable(2, 1, names, logits=np.zeros((2, 2)))
        names.append("c")
        assert table.types == ["a", "b"]

    def test_shape_matches_spans_times_types(self):
        table = ScoreTable(3, 2, ["a", "b"], logits=np.zeros((5, 2)))
        assert table.probs.shape == (5, 2)
        assert table.spans is enumerate_spans(3, 2)

    @pytest.mark.parametrize("num_words, k, types, logits, message", [
        (2, 1, ["a"], np.zeros((3, 1)), r"shape \(3, 1\) for 2 spans x 1 types"),
        (2, 1, ["a"], np.zeros((2, 2)), r"shape \(2, 2\) for 2 spans x 1 types"),
        (3, 2, ["a", "b"], np.zeros(10), r"shape \(10,\) for 5 spans x 2 types"),
        (3, 2, ["a", "b"], [[0.5, 0.5]] * 4, "for 5 spans x 2 types"),
        (0, 1, ["a"], np.zeros((0, 1)), "num_words and k must be >= 1"),
        (2, 0, ["a"], np.zeros((0, 1)), "num_words and k must be >= 1"),
    ])
    def test_refusals(self, num_words, k, types, logits, message):
        with pytest.raises(ContractError, match=message):
            ScoreTable(num_words, k, types, logits)

    def test_a_table_holds_logits_only(self):
        # the probs are the logits' sigmoid, never given
        with pytest.raises(TypeError):
            ScoreTable(2, 1, ["a"], probs=np.array([[0.25], [0.75]]))
