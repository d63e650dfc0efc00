import numpy as np
import pytest

from promptner import tensor as T
from promptner.errors import ContractError, DimensionError
from promptner.gradcheck import grad_check


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
        check(lambda p: T.sum_all(T.mul(T.matmul(p["p0"], p["p1"]),
                                        T.matmul(p["p0"], p["p1"]))),
              [(3, 4), (4, 2)])


class TestLinear:
    def test_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(0)
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
        assert np.array_equal(T.linear(t(x), t(w), t(b)).data, x @ w + b)
        assert np.array_equal(T.linear(t(x), t(w)).data, x @ w)

    def test_gradient(self):
        check(lambda p: T.sum_all(T.mul(T.linear(p["p0"], p["p1"], p["p2"]),
                                        T.linear(p["p0"], p["p1"], p["p2"]))),
              [(3, 4), (4, 2), (2,)])

    @pytest.mark.parametrize("shapes", [((2, 3), (2, 3), (3,)), ((2, 3), (3, 4), (3,)),
                                        ((3,), (3, 4), (4,))])
    def test_bad_shapes_rejected(self, shapes):
        x, w, b = (t(np.ones(s)) for s in shapes)
        with pytest.raises(DimensionError):
            T.linear(x, w, b)


class TestGatherRows:
    # a one-word span gathers row 0 twice; rows 2 and 3 are shared by spans
    SPANS = np.array([[0, 0], [0, 2], [2, 3], [1, 3], [3, 3]])

    def test_span_rows_gradient(self):
        w = np.random.default_rng(8).normal(size=(5, 6))
        check(lambda p: T.sum_all(T.mul(T.gather_rows(p["p0"], self.SPANS), w)), [(4, 3)])

    def test_span_rows_are_endpoint_rows_side_by_side(self):
        a = t(np.random.default_rng(9).normal(size=(4, 3)))
        out = T.gather_rows(a, self.SPANS)
        halves = [T.gather_rows(a, self.SPANS[:, i]).data for i in (0, 1)]
        assert np.array_equal(out.data, np.concatenate(halves, axis=1))

    @pytest.mark.parametrize("shape, width", [((0,), 3), ((0, 2), 6)])
    def test_empty_index(self, shape, width):
        a = t(np.ones((4, 3)))
        out = T.gather_rows(a, np.zeros(shape, dtype=np.int64))
        assert out.shape == (0, width)
        T.backward(T.sum_all(out))
        assert np.array_equal(a.grad, np.zeros((4, 3)))

    def test_bad_index_rejected(self):
        a = t(np.ones((4, 3)))
        with pytest.raises(ContractError):
            T.gather_rows(a, np.array([[0, 4]]))
        with pytest.raises(DimensionError):
            T.gather_rows(a, np.zeros((1, 2, 2), dtype=np.int64))


class TestElementwise:
    def test_gelu_gradient(self):
        check(lambda p: T.sum_all(T.mul(T.gelu(p["p0"]), p["p0"])), [(4, 5)], tol=1e-5)

    def test_incompatible_shapes(self):
        with pytest.raises(DimensionError):
            T.add(t(np.ones((2, 3))), t(np.ones((3, 2))))

    def test_row_broadcast_rejected(self):
        # a bias row goes through linear; add and mul broadcast scalars only
        with pytest.raises(DimensionError):
            T.add(t(np.ones((4, 3))), t(np.zeros(3)))

    def test_scalar_broadcast_backward(self):
        x = t(np.ones((4, 3)))
        c = t(2.0)
        T.backward(T.sum_all(T.mul(x, c)))
        assert np.allclose(x.grad, 2.0) and np.allclose(c.grad, 12.0)

    def test_no_input_mutation(self):
        x = t(np.ones((3, 3)))
        before = x.data.copy()
        T.relu(x)
        T.attention(x, x, x, 1)
        T.layer_norm(x, t(np.ones(3)), t(np.zeros(3)))
        assert np.array_equal(x.data, before)


class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        out = T.layer_norm(t([[3.0, 3.0, 3.0]]), t(np.ones(3)), t(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_already_normalized(self):
        out = T.layer_norm(t([[1.0, -1.0]]), t(np.ones(2)), t(np.zeros(2)), eps=1e-12)
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_gradient(self):
        check(lambda p: T.sum_all(T.mul(T.layer_norm(p["p0"], p["p1"], p["p2"]),
                                        T.layer_norm(p["p0"], p["p1"], p["p2"]))),
              [(3, 6), (6,), (6,)], tol=1e-5)

    def test_empty_row_rejected(self):
        with pytest.raises(DimensionError):
            T.layer_norm(t(np.ones((2, 0))), t(np.ones(0)), t(np.zeros(0)))


def reference_attention(q, k, v, heads):
    """Per-head loop in plain numpy: softmax(q_h k_h^T / sqrt(d_h)) v_h."""
    dh = q.shape[1] // heads
    out = np.empty_like(q)
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        z = q[:, cols] @ k[:, cols].T / np.sqrt(dh)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        out[:, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[:, cols]
    return out


class TestAttention:
    def test_gradient(self):
        # a weighted sum so every output element gets a different upstream grad
        w = np.random.default_rng(5).normal(size=(5, 8))
        check(lambda p: T.sum_all(T.mul(T.attention(p["p0"], p["p1"], p["p2"], 2), w)),
              [(5, 8), (5, 8), (5, 8)])

    def test_matches_per_head_reference(self):
        rng = np.random.default_rng(1)
        q, k, v = (rng.normal(size=(6, 12)) for _ in range(3))
        out = T.attention(t(q), t(k), t(v), 3).data
        assert np.abs(out - reference_attention(q, k, v, 3)).max() < 1e-12

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
        T.backward(T.sum_all(out))
        assert {q.grad.dtype, k.grad.dtype, v.grad.dtype} == {np.dtype(np.float32)}

    def test_gradient_padded_batch(self):
        # two prompts of 5 and 3 rows, the second padded to 5
        mask = np.arange(5) < np.array([[5], [3]])
        w = np.random.default_rng(6).normal(size=(10, 8))
        check(lambda p: T.sum_all(T.mul(T.attention(p["p0"], p["p1"], p["p2"], 2, mask), w)),
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
        T.backward(T.sum_all(T.gather_rows(out, np.flatnonzero(real))))
        for x in (qt, kt, vt):
            assert np.abs(x.grad[real]).max() > 0
            assert np.array_equal(x.grad[~real], np.zeros((3, width)))

    def test_bad_mask_rejected(self):
        q = t(np.ones((6, 8)))
        with pytest.raises(DimensionError):
            T.attention(q, q, q, 2, np.ones((2, 4), dtype=bool))
        with pytest.raises(ContractError):
            T.attention(q, q, q, 2, np.array([[True] * 3, [False] * 3]))

    @pytest.mark.parametrize("shapes, heads", [
        (((3, 8), (4, 8), (4, 8)), 2),
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
        T.backward(T.sum_all(w))
        assert np.allclose(w.grad, 1.0)

    def test_quadratic(self):
        w = t([[1.0, -2.0, 3.0]])
        T.backward(T.sum_all(T.mul(w, w)))
        assert np.allclose(w.grad, 2 * w.data)

    def test_double_backward_doubles(self):
        w = t([[1.0, 2.0]])
        loss = T.sum_all(T.mul(w, w))
        T.backward(loss)
        first = w.grad.copy()
        loss2 = T.sum_all(T.mul(w, w))
        T.backward(loss2)
        assert np.allclose(w.grad, 2 * first)

    def test_nonscalar_rejected(self):
        with pytest.raises(ContractError):
            T.backward(t(np.ones((2, 2))))

    def test_add_parents_get_unaliased_grads(self):
        # add hands one upstream array to both parents; each stores its own copy
        a, b = t([[1.0, 2.0]]), t([[3.0, 4.0]])
        T.backward(T.sum_all(T.add(a, b)))
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        assert np.array_equal(b.grad, [[1.0, 1.0]])

    def test_interior_grads_released_leaf_grads_kept(self):
        w, c = t([[1.0, -2.0]]), t([[3.0, 0.5]], rg=False)
        sq = T.mul(w, w)
        mid = T.add(sq, T.mul(w, c))
        loss = T.sum_all(mid)
        T.backward(loss)
        assert sq.grad is None and mid.grad is None and loss.grad is None
        assert c.grad is None
        assert np.array_equal(w.grad, 2 * w.data + c.data)

    def test_graph_nodes_put_parents_first(self):
        w, c = t([[1.0, -2.0]]), t([[3.0, 0.5]], rg=False)
        loss = T.sum_all(T.add(T.mul(w, w), T.mul(w, c)))
        nodes = T.graph_nodes(loss)
        pos = {id(n): i for i, n in enumerate(nodes)}
        assert len(pos) == len(nodes) == 6 and nodes[-1] is loss
        assert all(pos[id(p)] < pos[id(n)] for n in nodes for p in n._parents)

    def test_shared_input_accumulates(self):
        w = t([[2.0]])
        # w used twice: loss = w*w + w  -> grad 2w + 1
        loss = T.sum_all(T.add(T.mul(w, w), w))
        T.backward(loss)
        assert np.allclose(w.grad, [[5.0]])


class TestDropout:
    def test_deterministic_given_seed(self):
        x = t(np.ones((4, 4)))
        a = T.dropout(x, 0.5, np.random.default_rng(7)).data
        b = T.dropout(x, 0.5, np.random.default_rng(7)).data
        assert np.array_equal(a, b)

    def test_backward_matches_mask(self):
        x = t(np.ones((10, 10)))
        out = T.dropout(x, 0.3, np.random.default_rng(3))
        T.backward(T.sum_all(out))
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
