import numpy as np
import pytest

from scipy.special import erf

from conftest import mul, sum_all
from promptner import tensor as T
from promptner.errors import ContractError, DimensionError
from promptner.gradcheck import grad_check
from promptner.matcher import enumerate_spans


def t(data, rg=True, dtype=np.float64):
    return T.Tensor(np.asarray(data, dtype=float), requires_grad=rg, dtype=dtype)


def check(f, shapes, seed=0, tol=1e-6):
    rng = np.random.default_rng(seed)
    params = {f"p{i}": t(rng.normal(size=s)) for i, s in enumerate(shapes)}
    errs = grad_check(f, params, eps=1e-6, kink_guard=False)
    assert max(errs.values()) < tol, errs


class TestMatmul:
    def test_identity(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        eye = t(np.eye(2), rg=False)
        assert np.allclose(T.matmul(eye, a).data, a.data)

    def test_hand_product(self):
        out = T.matmul(t([[1, 2], [3, 4]]), t([[1], [1]]))
        assert np.allclose(out.data, [[3], [7]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))

    def test_gradient(self):
        check(lambda p: sum_all(mul(T.matmul(p["p0"], p["p1"]),
                                    T.matmul(p["p0"], p["p1"]))),
              [(3, 4), (4, 2)])


class TestLinear:
    def test_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(0)
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
        assert np.array_equal(T.linear(t(x), t(w), t(b)).data, x @ w + b)
        assert np.array_equal(T.linear(t(x), t(w)).data, x @ w)

    def test_gradient(self):
        check(lambda p: sum_all(mul(T.linear(p["p0"], p["p1"], p["p2"]),
                                    T.linear(p["p0"], p["p1"], p["p2"]))),
              [(3, 4), (4, 2), (2,)])

    @pytest.mark.parametrize("shapes", [((2, 3), (2, 3), (3,)), ((2, 3), (3, 4), (3,)),
                                        ((3,), (3, 4), (4,))])
    def test_bad_shapes_rejected(self, shapes):
        x, w, b = (t(np.ones(s)) for s in shapes)
        with pytest.raises(DimensionError):
            T.linear(x, w, b)


class TestGatherRows:
    def test_gradient_repeated_rows(self):
        w = np.random.default_rng(8).normal(size=(5, 3))
        check(lambda p: sum_all(mul(T.gather_rows(p["p0"], [0, 2, 2, 3, 0]), w)), [(4, 3)])

    def test_empty_index(self):
        a = t(np.ones((4, 3)))
        out = T.gather_rows(a, np.zeros(0, dtype=np.int64))
        assert out.shape == (0, 3)
        T.backward(sum_all(out))
        assert np.array_equal(a.grad, np.zeros((4, 3)))

    def test_bad_index_rejected(self):
        a = t(np.ones((4, 3)))
        with pytest.raises(ContractError):
            T.gather_rows(a, np.array([0, 4]))
        with pytest.raises(DimensionError):  # a span array goes to span_endpoints
            T.gather_rows(a, np.zeros((1, 2), dtype=np.int64))


class TestSpanEndpoints:
    # a one-word span uses row 0 as its start and end; starts and ends repeat
    SPANS = np.array([[0, 0], [0, 2], [2, 3], [1, 3], [3, 3]])
    # two prompts' word rows with two unused rows between them, as in a batch
    BATCH = np.concatenate([enumerate_spans(4, 2), enumerate_spans(3, 3) + 6])

    def test_matches_concatenated_endpoint_rows(self):
        # the head's first layer and its ReLU
        rng = np.random.default_rng(9)
        h, w1, b1 = rng.normal(size=(4, 3)), rng.normal(size=(6, 5)), rng.normal(size=5)
        out = T.span_endpoints(t(h), self.SPANS, t(w1), t(b1))
        cat = np.concatenate([h[self.SPANS[:, 0]], h[self.SPANS[:, 1]]], axis=1)
        first = cat @ w1 + b1
        assert (first < 0).any() and (first > 0).any()
        assert np.allclose(out.data, np.maximum(first, 0), rtol=1e-12, atol=1e-12)

    def test_gradient_through_the_fused_relu(self):
        # a bias of -1 clips a good share of the outputs to 0, where the
        # ReLU passes no gradient back
        w = np.random.default_rng(10).normal(size=(len(self.BATCH), 5))
        bias = t(np.full(5, -1.0), rg=False)

        def f(p):
            return sum_all(mul(T.span_endpoints(p["p0"], self.BATCH, p["p1"], bias), w))

        check(f, [(9, 3), (6, 5)], seed=3)
        rng = np.random.default_rng(3)
        h, w1 = t(rng.normal(size=(9, 3))), t(rng.normal(size=(6, 5)))
        out = T.span_endpoints(h, self.BATCH, w1, bias).data
        assert 0.3 < np.mean(out == 0) < 0.9

    @pytest.mark.parametrize("rows, spans", [(4, SPANS), (4, np.zeros((0, 2), dtype=np.int64)),
                                             (9, BATCH)])
    def test_gradient(self, rows, spans):
        w = np.random.default_rng(8).normal(size=(len(spans), 5))
        check(lambda p: sum_all(mul(T.span_endpoints(p["p0"], spans, p["p1"], p["p2"]), w)),
              [(rows, 3), (6, 5), (5,)])

    def test_unused_rows_get_zero_gradient(self):
        h = t(np.random.default_rng(4).normal(size=(9, 3)))
        w1 = t(np.random.default_rng(5).normal(size=(6, 5)))
        T.backward(sum_all(T.span_endpoints(h, self.BATCH, w1, t(np.zeros(5)))))
        assert np.array_equal(h.grad[4:6], np.zeros((2, 3)))
        assert np.abs(h.grad[[0, 1, 2, 3, 6, 7, 8]]).min() > 0

    def test_bad_inputs_rejected(self):
        h, w1, b1 = t(np.ones((4, 3))), t(np.ones((6, 5))), t(np.zeros(5))
        with pytest.raises(ContractError):
            T.span_endpoints(h, np.array([[0, 4]]), w1, b1)
        with pytest.raises(DimensionError):
            T.span_endpoints(h, np.array([0, 1]), w1, b1)
        with pytest.raises(DimensionError):
            T.span_endpoints(h, self.SPANS, t(np.ones((3, 5))), b1)


class TestSpanScores:
    # three prompts' spans (the second prompt padded by two unused word rows)
    # against their 2, 3 and 1 types: only each prompt's own block counts
    BATCH = np.concatenate([enumerate_spans(4, 2), enumerate_spans(3, 3) + 6,
                            enumerate_spans(2, 2) + 9])
    TYPES = [2, 3, 1]

    def test_forward_is_the_span_embedding_product_float32(self):
        rng = np.random.default_rng(14)
        r, w2, b2, q = (rng.normal(size=s).astype(np.float32)
                        for s in [(50, 16), (16, 12), (12,), (7, 12)])
        out = T.span_scores(*(T.Tensor(a) for a in (r, w2, b2, q))).data
        ref = (r.astype(np.float64) @ w2 + b2) @ q.T.astype(np.float64)
        assert out.dtype == np.float32 and out.shape == (50, 7)
        assert np.abs(out - ref).max() < 1e-5 * np.abs(ref).max()

    def test_gradient_one_prompt(self):
        w = np.random.default_rng(15).normal(size=(6, 3))
        check(lambda p: sum_all(mul(T.span_scores(p["p0"], p["p1"], p["p2"], p["p3"]), w)),
              [(6, 4), (4, 5), (5,), (3, 5)])

    def test_gradient_batch_of_blocks(self):
        # through span_endpoints and relu, as in the model, with the pair
        # weights of a batch: 0 outside each prompt's own block
        counts = [len(enumerate_spans(4, 2)), len(enumerate_spans(3, 3)),
                  len(enumerate_spans(2, 2))]
        block = np.zeros((len(self.BATCH), sum(self.TYPES)))
        for b, (rows, cols) in enumerate(zip(counts, self.TYPES)):
            r0, c0 = sum(counts[:b]), sum(self.TYPES[:b])
            block[r0:r0 + rows, c0:c0 + cols] = 1.0
        w = block * np.random.default_rng(16).normal(size=block.shape)

        def f(p):
            hidden = T.relu(T.span_endpoints(p["p0"], self.BATCH, p["p1"], p["p2"]))
            return sum_all(mul(T.span_scores(hidden, p["p3"], p["p4"], p["p5"]), w))

        check(f, [(11, 3), (6, 4), (4,), (4, 5), (5,), (sum(self.TYPES), 5)])

    def test_bad_shapes_rejected(self):
        r, w2, b2, q = t(np.ones((5, 4))), t(np.ones((4, 3))), t(np.zeros(3)), t(np.ones((2, 3)))
        for args in [(t(np.ones((5, 3))), w2, b2, q), (r, w2, t(np.zeros(4)), q),
                     (r, w2, b2, t(np.ones((2, 4)))), (r, w2, b2, t(np.ones(3)))]:
            with pytest.raises(DimensionError):
                T.span_scores(*args)


class TestElementwise:
    def test_gelu_gradient(self):
        check(lambda p: sum_all(mul(T.gelu(p["p0"]), p["p0"])), [(4, 5)], tol=1e-5)

    def test_incompatible_shapes(self):
        with pytest.raises(DimensionError):
            T.add(t(np.ones((2, 3))), t(np.ones((3, 2))))

    def test_row_broadcast_rejected(self):
        # a bias row goes through linear; add broadcasts nothing
        with pytest.raises(DimensionError):
            T.add(t(np.ones((4, 3))), t(np.zeros(3)))

    def test_no_input_mutation(self):
        # forward and backward, with and without a padded key, in both dtypes
        rng = np.random.default_rng(3)
        spans = np.array([[0, 1], [2, 3], [1, 1]])
        mask = np.array([[True, True], [True, False]])
        for dtype in (np.float32, np.float64):
            x, k, v, w1, b1, w2, b2 = (
                T.Tensor(rng.normal(size=s), requires_grad=True, dtype=dtype)
                for s in [(4, 4), (4, 4), (4, 4), (8, 3), (3,), (4, 3), (3,)])
            inputs = [x, k, v, w1, b1, w2, b2]
            before = [a.data.copy() for a in inputs] + [spans.copy()]
            outs = [T.relu(x), T.gelu(x), T.attention(x, k, v, 2), T.attention(x, k, v, 2, mask),
                    T.layer_norm(x, t(np.ones(4), dtype=dtype), t(np.zeros(4), dtype=dtype)),
                    T.span_endpoints(x, spans, w1, b1), T.span_scores(x, w2, b2, w1)]
            loss = outs[0]
            for out in outs:
                loss = T.add(sum_all(mul(out, out)), sum_all(loss))
            T.backward(loss)
            after = [a.data for a in inputs] + [spans]
            assert all(np.array_equal(a, b) for a, b in zip(before, after))

    # NaN must propagate
    GRID = np.concatenate([np.linspace(-10, 10, 4001), [0.0, -0.0, 10, -10, np.inf, -np.inf,
                                                        np.nan]])

    @np.errstate(invalid="ignore")  # -inf * Phi(-inf) is NaN here and in float64
    def test_gelu_float32_within_1e6_of_float64_erf(self):
        x = self.GRID.astype(np.float32)
        out = T.gelu(T.Tensor(x)).data
        x64 = x.astype(np.float64)
        ref = x64 * 0.5 * (1.0 + erf(x64 / np.sqrt(2.0)))
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)

    @np.errstate(invalid="ignore")
    def test_gelu_float64_is_the_scipy_erf_formula(self):
        x = np.concatenate([self.GRID, np.random.default_rng(1).normal(scale=3, size=500)])
        assert np.array_equal(T.gelu(t(x)).data, x * (0.5 * (1.0 + erf(x / np.sqrt(2.0)))),
                              equal_nan=True)


class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        out = T.layer_norm(t([[3.0, 3.0, 3.0]]), t(np.ones(3)), t(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_already_normalized(self):
        out = T.layer_norm(t([[1.0, -1.0]]), t(np.ones(2)), t(np.zeros(2)), eps=1e-12)
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_gradient(self):
        check(lambda p: sum_all(mul(T.layer_norm(p["p0"], p["p1"], p["p2"]),
                                    T.layer_norm(p["p0"], p["p1"], p["p2"]))),
              [(3, 6), (6,), (6,)], tol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_is_the_two_pass_formula_to_the_bit(self, dtype):
        rng = np.random.default_rng(8)
        for shape in [(1, 1), (1, 7), (3, 6), (5, 64), (17, 33), (290, 64), (2, 3, 8), (4, 257)]:
            x = (rng.normal(size=shape) * 3 + 1).astype(dtype)
            gamma, beta = (rng.normal(size=shape[-1]).astype(dtype) for _ in range(2))
            mu = x.mean(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
            out = T.layer_norm(*(T.Tensor(a, dtype=dtype) for a in (x, gamma, beta))).data
            assert out.dtype == dtype
            assert np.array_equal(out, (x - mu) * inv * gamma + beta), shape

    def test_empty_row_rejected(self):
        with pytest.raises(DimensionError):
            T.layer_norm(t(np.ones((2, 0))), t(np.ones(0)), t(np.zeros(0)))


def reference_attention(q, k, v, heads, mask=None):
    """Per prompt and per head in plain float64 numpy: softmax(q_h k_h^T /
    sqrt(d_h)) v_h over the prompt's real keys, each row shifted by its max."""
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    mask = np.ones((1, len(q)), dtype=bool) if mask is None else mask
    length, dh = mask.shape[1], q.shape[1] // heads
    out = np.empty_like(q)
    for b, real in enumerate(mask):
        rows = slice(b * length, (b + 1) * length)
        keys = b * length + np.flatnonzero(real)
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            z = q[rows, cols] @ k[keys, cols].T / np.sqrt(dh)
            e = np.exp(z - z.max(axis=1, keepdims=True))
            out[rows, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[keys, cols]
    return out


class TestAttention:
    def test_gradient(self):
        # a weighted sum so every output element gets a different upstream grad
        w = np.random.default_rng(5).normal(size=(5, 8))
        check(lambda p: sum_all(mul(T.attention(p["p0"], p["p1"], p["p2"], 2), w)),
              [(5, 8), (5, 8), (5, 8)])

    def test_matches_per_head_reference(self):
        rng = np.random.default_rng(1)
        q, k, v = (rng.normal(size=(6, 12)) for _ in range(3))
        out = T.attention(t(q), t(k), t(v), 3).data
        assert np.abs(out - reference_attention(q, k, v, 3)).max() < 1e-12

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("padded", [False, True])
    def test_matches_reference_softmax(self, dtype, tol, padded):
        # two prompts of 6 rows, the second with 2 padded keys when padded
        rng = np.random.default_rng(11)
        mask = np.arange(6) < np.array([[6], [4 if padded else 6]])
        q, k, v = (rng.normal(size=(12, 8)).astype(dtype) for _ in range(3))
        out = T.attention(*(T.Tensor(a, dtype=dtype) for a in (q, k, v)), 2, mask).data
        assert out.dtype == dtype
        assert np.abs(out - reference_attention(q, k, v, 2, mask)).max() < tol

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-3), (np.float64, 1e-9)])
    @pytest.mark.parametrize("padded", [False, True])
    def test_scores_of_1e3_match_the_shifted_reference(self, dtype, tol, padded):
        # without the shift, exp overflows at these scores in both dtypes
        rng = np.random.default_rng(12)
        mask = np.arange(6) < np.array([[6], [3 if padded else 6]])
        q, k = (rng.normal(size=(12, 8)).astype(dtype) * 30 for _ in range(2))
        v = rng.normal(size=(12, 8)).astype(dtype)
        z = q[:, :4] @ k[:, :4].T / 2.0
        assert z.max() > 1e3 and z.min() < -1e3
        out = T.attention(*(T.Tensor(a, dtype=dtype) for a in (q, k, v)), 2, mask).data
        assert np.isfinite(out).all()
        assert np.abs(out - reference_attention(q, k, v, 2, mask)).max() < tol

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("padded", [False, True])
    def test_underflowing_query_matches_the_shifted_reference(self, dtype, tol, padded):
        # every score of query 1 lies below -200: each exp underflows (or its
        # sum falls below 2^-100), so the call takes the shifted route
        rng = np.random.default_rng(17)
        mask = np.arange(6) < np.array([[6], [4 if padded else 6]])
        k = (5.0 + 0.1 * rng.normal(size=(12, 8))).astype(dtype)
        q, v = (rng.normal(size=(12, 8)).astype(dtype) for _ in range(2))
        q[1] = -30.0
        z = q[1, :4] @ k[:, :4].T / 2.0
        assert z.max() < -200
        out = T.attention(*(T.Tensor(a, dtype=dtype) for a in (q, k, v)), 2, mask).data
        assert np.isfinite(out).all()
        assert np.abs(out - reference_attention(q, k, v, 2, mask)).max() < tol

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padded", [False, True])
    def test_second_backward_doubles_the_grads_exactly(self, dtype, padded):
        # the backward reads the stored score block and never writes it
        rng = np.random.default_rng(13)
        mask = np.arange(5) < np.array([[5], [3 if padded else 5]])
        q, k, v = (T.Tensor(rng.normal(size=(10, 8)), requires_grad=True, dtype=dtype)
                   for _ in range(3))
        w = T.Tensor(rng.normal(size=(10, 8)), dtype=dtype)
        loss = sum_all(mul(T.attention(q, k, v, 2, mask), w))
        T.backward(loss)
        first = [x.grad.copy() for x in (q, k, v)]
        T.backward(loss)
        assert all(np.array_equal(x.grad, 2 * g) for x, g in zip((q, k, v), first))

    def test_key_shift_invariance(self):
        # why the encoder has no key bias: k + c adds q.c to a whole score row
        rng = np.random.default_rng(2)
        q, k, v = (rng.normal(size=(4, 8)) for _ in range(3))
        c = rng.normal(size=8)
        a = T.attention(t(q), t(k), t(v), 2).data
        b = T.attention(t(q), t(k + c), t(v), 2).data
        assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_large_logits_stay_finite(self):
        rng = np.random.default_rng(3)
        q, k, v = (rng.normal(size=(5, 8)) for _ in range(3))
        out = T.attention(t(q * 30), t(k * 30), t(v), 2).data
        assert np.isfinite(out).all()

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(4)
        q, k, v = (t(rng.normal(size=(3, 8)), dtype=np.float32) for _ in range(3))
        out = T.attention(q, k, v, 4)
        assert out.dtype == np.float32
        T.backward(sum_all(out))
        assert {q.grad.dtype, k.grad.dtype, v.grad.dtype} == {np.dtype(np.float32)}

    def test_gradient_padded_batch(self):
        # two prompts of 5 and 3 rows, the second padded to 5
        mask = np.arange(5) < np.array([[5], [3]])
        w = np.random.default_rng(6).normal(size=(10, 8))
        check(lambda p: sum_all(mul(T.attention(p["p0"], p["p1"], p["p2"], 2, mask), w)),
              [(10, 8), (10, 8), (10, 8)])

    def test_padded_keys_change_nothing(self):
        # each prompt's real rows match running it alone, and with the loss
        # on real rows only, padded rows get exactly zero gradient
        rng = np.random.default_rng(7)
        lengths, width = (4, 2, 3), 8
        mask = np.arange(4) < np.array(lengths)[:, None]
        q, k, v = (rng.normal(size=(12, width)) for _ in range(3))
        qt, kt, vt = t(q), t(k), t(v)
        out = T.attention(qt, kt, vt, 2, mask)
        for b, n in enumerate(lengths):
            rows = slice(4 * b, 4 * b + n)
            alone = T.attention(t(q[rows]), t(k[rows]), t(v[rows]), 2).data
            assert np.abs(out.data[rows] - alone).max() < 1e-6
        real = mask.reshape(-1)
        T.backward(sum_all(T.gather_rows(out, np.flatnonzero(real))))
        for x in (qt, kt, vt):
            assert np.abs(x.grad[real]).max() > 0
            assert np.array_equal(x.grad[~real], np.zeros((3, width)))

    def test_bad_mask_rejected(self):
        q = t(np.ones((6, 8)))
        with pytest.raises(DimensionError):
            T.attention(q, q, q, 2, np.ones((2, 4), dtype=bool))
        with pytest.raises(ContractError):
            T.attention(q, q, q, 2, np.array([[True] * 3, [False] * 3]))

    # prompt lengths, the query rows read of each prompt, and the batch's
    # query rows padded to the longest list with the prompt's row 0
    LENGTHS, READ = (6, 3, 5), ([0, 2, 3, 5], [1, 2], [0, 4, 2])
    QROWS = np.array([b * 6 + np.pad(r, (0, 4 - len(r))) for b, r in enumerate(READ)]).ravel()

    def test_fewer_query_rows_match_full_attention(self):
        # each query row's output is the full attention's at the row it reads
        rng = np.random.default_rng(21)
        mask = np.arange(6) < np.array(self.LENGTHS)[:, None]
        q, k, v = (rng.normal(size=(18, 8)).astype(np.float32) for _ in range(3))
        full = T.attention(*(T.Tensor(a) for a in (q, k, v)), 2, mask).data
        cut = T.attention(T.Tensor(q[self.QROWS]), T.Tensor(k), T.Tensor(v), 2, mask).data
        assert cut.shape == (12, 8) and cut.dtype == np.float32
        assert np.abs(cut - full[self.QROWS]).max() < 1e-6

    def test_gradient_fewer_query_rows_padded_batch(self):
        # three prompts of 6 padded keys (padding keys in two of them) and
        # 4 query rows each, padding query rows included
        mask = np.arange(6) < np.array(self.LENGTHS)[:, None]
        w = np.random.default_rng(22).normal(size=(12, 8))
        check(lambda p: sum_all(mul(T.attention(p["p0"], p["p1"], p["p2"], 2, mask), w)),
              [(12, 8), (18, 8), (18, 8)])

    def test_query_rows_must_split_into_prompts(self):
        q, kv = t(np.ones((7, 8))), t(np.ones((8, 8)))
        with pytest.raises(DimensionError):
            T.attention(q, kv, kv, 2, np.ones((2, 4), dtype=bool))

    @pytest.mark.parametrize("shapes, heads", [
        (((3, 8), (4, 8), (3, 8)), 2),
        (((3, 8), (3, 8), (3, 6)), 2),
        (((3, 8), (3, 8), (3, 8)), 3),
        (((8,), (8,), (8,)), 2),
    ])
    def test_bad_shapes_rejected(self, shapes, heads):
        q, k, v = (t(np.ones(s)) for s in shapes)
        with pytest.raises(DimensionError):
            T.attention(q, k, v, heads)


class TestBackward:
    def test_sum_gives_ones(self):
        w = t(np.arange(6.0).reshape(2, 3))
        T.backward(sum_all(w))
        assert np.allclose(w.grad, 1.0)

    def test_quadratic(self):
        w = t([[1.0, -2.0, 3.0]])
        T.backward(sum_all(mul(w, w)))
        assert np.allclose(w.grad, 2 * w.data)

    def test_double_backward_doubles(self):
        w = t([[1.0, 2.0]])
        loss = sum_all(mul(w, w))
        T.backward(loss)
        first = w.grad.copy()
        loss2 = sum_all(mul(w, w))
        T.backward(loss2)
        assert np.allclose(w.grad, 2 * first)

    def test_nonscalar_rejected(self):
        with pytest.raises(ContractError):
            T.backward(t(np.ones((2, 2))))

    def test_add_parents_get_unaliased_grads(self):
        # add hands one upstream array to both parents; each stores its own copy
        a, b = t([[1.0, 2.0]]), t([[3.0, 4.0]])
        T.backward(sum_all(T.add(a, b)))
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        assert np.array_equal(b.grad, [[1.0, 1.0]])

    def test_interior_grads_released_leaf_grads_kept(self):
        w, c = t([[1.0, -2.0]]), t([[3.0, 0.5]], rg=False)
        sq = mul(w, w)
        mid = T.add(sq, mul(w, c))
        loss = sum_all(mid)
        T.backward(loss)
        assert sq.grad is None and mid.grad is None and loss.grad is None
        assert c.grad is None
        assert np.array_equal(w.grad, 2 * w.data + c.data)

    def test_graph_nodes_put_parents_first(self):
        w, c = t([[1.0, -2.0]]), t([[3.0, 0.5]], rg=False)
        loss = sum_all(T.add(mul(w, w), mul(w, c)))
        nodes = T.graph_nodes(loss)
        pos = {id(n): i for i, n in enumerate(nodes)}
        assert len(pos) == len(nodes) == 6 and nodes[-1] is loss
        assert all(pos[id(p)] < pos[id(n)] for n in nodes for p in n._parents)

    def test_shared_input_accumulates(self):
        w = t([[2.0]])
        # w used twice: loss = w*w + w  -> grad 2w + 1
        loss = sum_all(T.add(mul(w, w), w))
        T.backward(loss)
        assert np.allclose(w.grad, [[5.0]])


_SPANS = np.array([[0, 0], [0, 1], [1, 3], [2, 2]])
_MASK = np.array([[True, True, False], [True, True, True]])
# each op as (function of its operands, operand shapes)
_OPS = {
    "add": (T.add, [(3, 4), (3, 4)]),
    "linear": (T.linear, [(3, 4), (4, 2), (2,)]),
    "linear_without_bias": (T.linear, [(3, 4), (4, 2)]),
    "span_endpoints": (lambda h, w1, b1: T.span_endpoints(h, _SPANS, w1, b1),
                       [(4, 3), (6, 5), (5,)]),
    "span_scores": (T.span_scores, [(5, 3), (3, 4), (4,), (2, 4)]),
    "layer_norm": (T.layer_norm, [(3, 4), (4,), (4,)]),
    "attention": (lambda q, k, v: T.attention(q, k, v, 2, _MASK), [(4, 4), (6, 4), (6, 4)]),
}


class TestGradientFreeOperand:
    """Backward rules hand every operand its gradient; ``_accumulate`` alone
    drops the gradient of an operand that does not require one."""

    @staticmethod
    def _grads(op, free):
        f, shapes = _OPS[op]
        rng = np.random.default_rng(0)
        xs = [t(rng.normal(size=s), rg=i != free) for i, s in enumerate(shapes)]
        y = f(*xs)
        T.backward(sum_all(mul(y, rng.normal(size=y.shape))))
        return [x.grad for x in xs]

    @pytest.mark.parametrize("op, free", [(op, i) for op, (_, shapes) in _OPS.items()
                                          for i in range(len(shapes))])
    def test_other_grads_bit_equal(self, op, free):
        full = self._grads(op, None)
        grads = self._grads(op, free)
        assert grads[free] is None
        assert all(np.array_equal(g, h) for i, (g, h) in enumerate(zip(grads, full))
                   if i != free)


class TestDropout:
    def test_rng_needed_unless_p_is_zero(self):
        x = t(np.ones((2, 2)))
        assert T.dropout(x, 0.0, None) is x
        with pytest.raises(ContractError):
            T.dropout(x, 0.1, None)

    def test_deterministic_given_seed(self):
        x = t(np.ones((4, 4)))
        a = T.dropout(x, 0.5, np.random.default_rng(7)).data
        b = T.dropout(x, 0.5, np.random.default_rng(7)).data
        assert np.array_equal(a, b)

    def test_backward_matches_mask(self):
        x = t(np.ones((10, 10)))
        out = T.dropout(x, 0.3, np.random.default_rng(3))
        T.backward(sum_all(out))
        assert np.array_equal(x.grad, out.data)  # mask * 1, inputs all ones


class TestBceWithLogits:
    def test_zero_logit_positive(self):
        loss = T.bce_with_logits(t([[0.0]]), np.array([[1.0]]))
        assert abs(loss.item() - np.log(2)) < 1e-9

    def test_two_pairs_sum(self):
        loss = T.bce_with_logits(t([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert abs(loss.item() - 2 * np.log(2)) < 1e-9

    def test_matches_naive_moderate_logits(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-20, 20, size=(100, 10))
        y = (rng.random((100, 10)) < 0.5).astype(float)
        stable = T.bce_with_logits(t(x), y).item()
        s = 1 / (1 + np.exp(-x))
        naive = -(y * np.log(s) + (1 - y) * np.log(1 - s)).sum()
        assert abs(stable - naive) / abs(naive) < 1e-9

    def test_finite_for_extreme_logits(self):
        loss = T.bce_with_logits(t([[1000.0, -1000.0]]), np.array([[0.0, 1.0]]))
        assert np.isfinite(loss.item())

    def test_gradient(self):
        # weights of 1/size: the mean over all pairs
        y = np.array([[1.0, 0.0, 1.0]])
        check(lambda p: T.bce_with_logits(p["p0"], y, np.full((1, 3), 1 / 3)), [(1, 3)])

    def test_weighted_gradient(self):
        # zero and fractional weights, as a masked batch of blocks has them
        rng = np.random.default_rng(1)
        y = (rng.random((4, 5)) < 0.5).astype(float)
        w = np.where(rng.random((4, 5)) < 0.4, 0.0, rng.uniform(0.1, 2.0, (4, 5)))
        assert (w == 0).any() and (w != 0).any()
        check(lambda p: T.bce_with_logits(p["p0"], y, w), [(4, 5)])

    def test_weights_scale_each_term(self):
        rng = np.random.default_rng(2)
        x, w = rng.normal(size=(3, 4)), rng.random((3, 4))
        y = (rng.random((3, 4)) < 0.5).astype(float)
        terms = [T.bce_with_logits(t([[a]]), [[b]]).item() for a, b in zip(x.flat, y.flat)]
        weighted = T.bce_with_logits(t(x), y, w).item()
        assert abs(weighted - np.dot(w.ravel(), terms)) < 1e-12

    def test_zero_weight_pairs_add_exactly_zero(self):
        # extreme logits on masked pairs change neither the loss nor any grad
        x = t([[1000.0, -1000.0, 0.5], [-1000.0, 1000.0, -0.25]])
        y = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
        w = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        loss = T.bce_with_logits(x, y, w)
        T.backward(loss)
        kept = T.bce_with_logits(t(x.data[:, 2:]), y[:, 2:]).item()
        assert loss.item() == kept
        assert np.all(x.grad[:, :2] == 0.0)
        assert np.array_equal(x.grad[:, 2], 1 / (1 + np.exp(-x.data[:, 2])) - y[:, 2])

    def test_weights_shape_checked(self):
        with pytest.raises(DimensionError):
            T.bce_with_logits(t([[0.0, 0.0]]), [[1.0, 0.0]], [[1.0]])
