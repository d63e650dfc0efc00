"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array. An operation with a ``requires_grad``
operand records its result on an implicit tape (the result keeps its operands
and a backward closure); one on gradient-free operands records nothing, so
each intermediate is freed as soon as its last consumer has run.
:func:`backward` on a scalar result walks :func:`graph_nodes` in reverse
topological order; each backward rule hands every operand its gradient, and
``Tensor._accumulate`` keeps it only in a ``requires_grad`` tensor's ``grad``.
Gradients are handed over, not copied: each rule hands each operand an array
no one else holds (only :func:`add` copies, for its second operand), which
becomes its ``grad`` or is added into it in place. Gathers sum their gradient
rows by ``_scatter_rows``, one flat np.add.at into zeros.

Only the operations the model needs are implemented, and nothing
broadcasts, so every backward rule stays small and auditable. A
batch of B prompts padded to L tokens is one B*L x D tensor; :func:`attention`
masks the padded keys and takes as few query rows per prompt as the caller
reads, :func:`span_endpoints` computes a span head's first layer and its
ReLU from each span's two endpoint rows, and :func:`bce_with_logits` weighs
each pair; :func:`span_scores` scores the span head's hidden rows against
the types with the head's second layer moved to the type side. Inputs are
never mutated; :func:`attention`, :func:`gelu` and :func:`layer_norm` work in
place on their own temporaries, forward and backward (a recorded float32
:func:`gelu` keeps its forward's exp(-x^2 / 2) for the backward), and
:func:`attention` exponentiates its scores unshifted (shifting only when that
overflows or underflows) and normalises its softmax at the output, not over
its score block. Leaf gradients accumulate additively (running backward twice
without zeroing doubles them); interior gradients are released as soon as
their node's backward has run.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DimensionError

_SQRT2 = np.sqrt(2.0)  # the float64 GELU's Phi(x) = (1 + erf(x / sqrt 2)) / 2
_ERF = np.frompyfunc(math.erf, 1, 1)  # math.erf on every element of an array
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)  # a Python float keeps x's dtype
# Abramowitz & Stegun 7.1.26: erfc(u) ~ t (a1 + t (a2 + ... + t a5)) exp(-u^2)
# for u >= 0, with t = 1 / (1 + p u); |error| < 1.5e-7. p / sqrt 2 takes |x|.
_AS_P = 0.3275911 / math.sqrt(2.0)
_AS_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
# attention's unshifted softmax falls back to the shifted one below this sum
_MIN_SUM = 2.0 ** -100


class Tensor:
    """N-dimensional array with an attached gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, dtype=np.float32, _parents=(), _op="leaf",
                 _backward=None):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self.op = _op

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data)

    # -- grad bookkeeping ---------------------------------------------------

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        """Add ``g`` to the gradient, taking ``g`` itself as the first one: a
        backward rule hands each operand an array that no one else holds."""
        if not self.requires_grad:  # the one place a gradient is dropped
            return
        if self.grad is None:
            self.grad = np.asarray(g, dtype=self.data.dtype)
        else:
            self.grad += g.astype(self.data.dtype, copy=False)


def _result(data, parents, op, backward):
    """The node of the array ``data``; it keeps ``parents`` and the ``backward(grad)``
    closure, and so the operands' arrays, only when some parent requires grad."""
    for p in parents:
        if p.requires_grad:
            return Tensor(data, True, data.dtype, tuple(parents), op, backward)
    t = Tensor.__new__(Tensor)  # gradient-free: only a 0-d op's numpy scalar is converted
    t.data, t.op, t.requires_grad, t._parents = np.asarray(data), op, False, ()
    t.grad = t._backward = None
    return t


# -- elementwise ------------------------------------------------------------

def add(a, b):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add needs equal shapes, got {a.shape} and {b.shape}")

    def bw(g):
        a._accumulate(g)
        b._accumulate(g.copy())  # the one rule that hands one array to two operands

    return _result(a.data + b.data, (a, b), "add", bw)


def relu(a):
    return _result(np.maximum(a.data, 0), (a,), "relu",
                   lambda g: a._accumulate(g * (a.data > 0)))


def sigmoid(x):
    """The package's one sigmoid, on arrays, in x's dtype: 1 / (1 + e) with
    e = exp(-x) taken in float64 and rounded once to x's dtype. Like scipy's
    expit it gives exactly 0 and 1 where e overflows or vanishes, without a
    warning. It is monotone over every finite float32 (checked exhaustively;
    the all-float32 form is not), which ``decoder.decode``'s logit cut needs."""
    x = np.asarray(x)
    with np.errstate(over="ignore"):
        e = np.exp(-x.astype(np.float64)).astype(x.dtype, copy=False)
    return 1 / (1 + e)


def _normal_cdf_f32(x, keep_exp=False):
    """Phi(x) for float32 x, in place on its temporaries: y = erfc(|x| /
    sqrt 2), then Phi = y/2 below 0 (no cancellation) and y/2 + (1 - y) from 0.
    Returns (Phi, exp(-x^2 / 2) when ``keep_exp``, else None)."""
    u = np.abs(x)
    t = u * _AS_P
    t += 1.0
    np.reciprocal(t, out=t)
    y = t * _AS_A[-1]
    for a in reversed(_AS_A[:-1]):
        y += a
        y *= t
    np.square(u, out=u)
    u *= -0.5
    e = np.exp(u, out=u)
    y *= e
    u = np.subtract(1.0, y, out=None if keep_exp else u)
    u *= x >= 0
    y *= 0.5
    y += u
    return y, e if keep_exp else None


def gelu(a):
    """Erf-based (not tanh) GELU, x Phi(x), in the input dtype: math.erf for
    float64 (gradcheck's reference), the A&S erf (|error| < 1.5e-7) for float32."""
    x = a.data
    if x.dtype == np.float32:  # a recorded node keeps the forward's exp(-x^2 / 2)
        cdf, e = _normal_cdf_f32(x, keep_exp=a.requires_grad)
    else:  # frompyfunc gives objects, and a Python float for a 0-d x
        cdf, e = 0.5 * (1.0 + np.asarray(_ERF(x / _SQRT2), dtype=np.float64)), None

    def bw(g):
        # g (cdf + x pdf) in place on one fresh array: e is kept for a second backward
        d = np.multiply(np.exp(-0.5 * x * x) if e is None else e, _INV_SQRT_2PI)
        d *= x
        d += cdf
        d *= g
        a._accumulate(d)

    return _result(x * cdf, (a,), "gelu", bw)


def dropout(a, p, rng):
    """Recorded mask multiply; backward is exact for the sampled mask. The
    dropout rules live here only: p == 0 returns ``a`` itself (no node, no
    draw from ``rng``), and any other p in [0, 1) needs an ``rng``."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability {p} outside [0, 1)")
    if p == 0.0:
        return a
    if rng is None:
        raise ContractError(f"dropout of {p} needs an rng")
    mask = (rng.random(a.data.shape) >= p).astype(a.dtype) / np.asarray(1.0 - p, dtype=a.dtype)
    return _result(a.data * mask, (a,), "dropout", lambda g: a._accumulate(g * mask))


# -- linear algebra ---------------------------------------------------------

def linear(x, w, b=None):
    """``x @ w``, plus the row vector ``b`` on every row when given, as one
    tape node (2-D ``x`` and ``w``)."""
    xs, ws = x.data.shape, w.data.shape
    if len(xs) != 2 or len(ws) != 2:
        raise DimensionError("linear requires 2-D operands")
    if xs[1] != ws[0]:
        raise DimensionError(f"inner dimensions disagree: {xs} @ {ws}")
    if b is not None and b.data.shape != (ws[1],):
        raise DimensionError(f"bias shape {b.shape} != ({ws[1]},)")
    y = x.data @ w.data
    if b is not None:
        y += b.data

    def bw(g):
        x._accumulate(g @ w.data.T)
        w._accumulate(x.data.T @ g)
        if b is not None:
            b._accumulate(g.sum(axis=0))

    return _result(y, (x, w) if b is None else (x, w, b), "linear", bw)


matmul = linear  # x @ w: a linear node without a bias


def _check_rows(idx, shape):
    """Refuse an int64 index outside [0, shape[0]): as uint64 a negative one is >= 2^63."""
    if idx.size and np.maximum.reduce(idx.view(np.uint64), axis=None) >= shape[0]:
        raise ContractError(f"row index out of range for shape {shape}")


def _scatter_rows(idx, g, rows):
    """The rows x F sum that scatters row p of g to each row ``idx[p]`` names
    (idx of shape (len(g), c)): one np.add.at into flat zeros, each element
    adding its reads in order of p from +0.0 (so a -0.0 alone in a row comes
    out +0.0), the bits of np.add.at of the rows into (rows, F) zeros."""
    f = g.shape[1]
    out = np.zeros(rows * f, dtype=g.dtype)
    np.add.at(out, (idx.reshape(-1, 1) * f + np.arange(f)).ravel(),
              np.repeat(g, idx.shape[1], axis=0).ravel())
    return out.reshape(rows, f)


def gather_rows(a, idx):
    """Select rows of a 2-D tensor by a 1-D index; the backward sums each
    row's upstream rows into zeros by ``_scatter_rows`` and adds that sum to
    ``a``'s gradient. It equals np.add.at to the bit only while ``a`` holds no
    gradient yet; into an existing gradient G a row read twice gets
    G + (g1 + g2), where np.add.at gives (G + g1) + g2."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.data.ndim != 2 or idx.ndim != 1:
        raise DimensionError("gather_rows requires a 2-D tensor and a 1-D index")
    _check_rows(idx, a.data.shape)
    return _result(a.data.take(idx, axis=0), (a,), "gather_rows",
                   lambda g: a._accumulate(_scatter_rows(idx[:, None], g, a.shape[0])))


def span_endpoints(h, spans, w1, b1):
    """First span-head layer and its ReLU, relu([h_start ; h_end] w1 + b1), for
    every (start, end) row of the (S, 2) index ``spans`` into the rows of h,
    without the concatenation: with w1 = [w_0 ; w_1] (2D x F), row i is
    relu((h w_0 + b1)[start_i] + (h w_1)[end_i]): products of h's rows, not S."""
    spans = np.asarray(spans, dtype=np.int64)
    hs, ws = h.data.shape, w1.data.shape
    if len(hs) != 2 or spans.ndim != 2 or spans.shape[1] != 2:
        raise DimensionError("span_endpoints requires a 2-D tensor and an (S, 2) index")
    if len(ws) != 2 or ws[0] != 2 * hs[1] or b1.data.shape != (ws[1],):
        raise DimensionError(f"span weights {ws}, bias {b1.shape} do not fit width {hs[1]}")
    _check_rows(spans, hs)
    w = w1.data.reshape(2, hs[1], -1)  # w_0 and w_1
    hw = h.data @ w
    hw[0] += b1.data  # on the start rows, before the gather
    z = hw[0, spans[:, 0]]
    z += hw[1, spans[:, 1]]

    def bw(g):
        g = g * (z > 0)
        b1._accumulate(g.sum(axis=0))
        n = hs[0]  # by start, by end: rows of the start half, then of the end half
        gk = _scatter_rows(spans + (0, n), g, 2 * n).reshape(2, n, -1)
        h._accumulate((gk @ w.transpose(0, 2, 1)).sum(axis=0))
        w1._accumulate((h.data.T @ gk).reshape(ws))

    bw.pre_relu = z  # for gradcheck's kink guard
    return _result(np.maximum(z, 0), (h, w1, b1), "span_endpoints", bw)


def span_scores(r, w2, b2, q):
    """Span-type logits (r w2 + b2) q^T of the S x D hidden rows r of the span
    head and the M x E type embeddings q, computed as r (w2 q^T) + q b2: the
    head's second layer moves to the type side, so the S x E span embeddings
    are never built and a D x E x M product replaces the S x D x E one."""
    rs, ws, qs = r.data.shape, w2.data.shape, q.data.shape
    if len(rs) != 2 or len(ws) != 2 or len(qs) != 2:
        raise DimensionError("span_scores requires 2-D rows, weights and types")
    if ws[0] != rs[1] or b2.data.shape != (ws[1],) or qs[1] != ws[1]:
        raise DimensionError(f"span weights {ws}, bias {b2.shape} do not fit "
                             f"rows {rs} and types {qs}")
    a = w2.data @ q.data.T  # D x M
    y = r.data @ a
    y += q.data @ b2.data

    def bw(g):
        ga = r.data.T @ g  # d (w2 q^T), D x M
        gc = g.sum(axis=0)  # d (q b2), one number per type
        r._accumulate(g @ a.T)
        w2._accumulate(ga @ q.data)
        b2._accumulate(gc @ q.data)
        q._accumulate(ga.T @ w2.data + np.outer(gc, b2.data))

    return _result(y, (r, w2, b2, q), "span_scores", bw)


# -- normalization ----------------------------------------------------------

def layer_norm(x, gamma, beta, eps=1e-5):
    """Per-row normalization over the last axis, then affine."""
    d = x.data.shape[-1] if x.data.ndim else 0
    if d == 0:
        raise DimensionError("layer_norm needs a non-empty last dimension")
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise DimensionError(f"gamma/beta must have shape ({d},)")
    # means as sums over d: ndarray.mean's result to the bit, without its overhead
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xhat = x.data - mu  # the one deviation, scaled in place below
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d  # numpy's var, to the bit
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv

    def bw(g):
        # (gg - m1 - xhat m2) inv for gg = g gamma, in place on gg and one scratch t
        t = g * xhat
        gamma._accumulate(t.reshape(-1, d).sum(axis=0))
        beta._accumulate(g.reshape(-1, d).sum(axis=0))
        gg = g * gamma.data
        m1 = np.add.reduce(gg, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(np.multiply(gg, xhat, out=t), axis=-1, keepdims=True) / d
        gg -= m1
        gg -= np.multiply(xhat, m2, out=t)
        gg *= inv
        x._accumulate(gg)

    y = xhat * gamma.data
    y += beta.data
    return _result(y.astype(x.data.dtype, copy=False), (x, gamma, beta), "layer_norm", bw)


# -- attention --------------------------------------------------------------

def attention(q, k, v, heads, mask=None):
    """Multi-head scaled dot-product attention over B prompts.

    k and v are B*L x D and q is B*Lq x D: a caller that reads only Lq < L
    rows of each prompt queries only those. ``mask`` is the (B, L) bool array
    of real keys (None: one prompt of all rows), and each query attends to
    the real keys of its own prompt only. Head h owns column block h (width
    d_h = D / heads) and computes softmax(q_h k_h^T / sqrt(d_h)) v_h into the
    same block of the B*Lq x D result. Adding one row vector to every key leaves
    the output unchanged (softmax is shift-invariant per row).

    The score block is held keys x queries and takes two passes: the product
    (q is scaled first, an Lq x D product) and the exp in place, unshifted.
    The softmax is normalised at the output: one product of the block with
    [v | 1] gives e^T v and each query's sum r of e, and the output is
    (e^T v) / r, an Lq x d_h division. Without a max shift, exp can overflow
    or underflow: when some entry of that product is not finite or some r
    is below 2^-100, the whole call recomputes the block shifted by each
    query's max (the usual max-subtracted softmax). The backward only reads
    the block.
    """
    qs, ks = q.data.shape, k.data.shape
    if len(qs) != 2 or len(ks) != 2 or v.data.shape != ks or qs[1] != ks[1]:
        raise DimensionError(f"attention needs 2-D q, k, v of one width and k, v of one "
                             f"shape, got {qs}, {ks}, {v.shape}")
    rows, width = ks
    if heads < 1 or width % heads:
        raise DimensionError(f"width {width} is not divisible by {heads} heads")
    nb, padded = 1, False  # no mask: one prompt, no padding
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2 or mask.size != rows:
            raise DimensionError(f"mask shape {mask.shape} does not cover {rows} rows")
        nb, padded = len(mask), not mask.all()  # the -inf bias only when a key is padding
        if padded and not mask.any(axis=1).all():
            raise ContractError("every prompt needs at least one real token")
    if qs[0] % nb:
        raise DimensionError(f"{qs[0]} query rows do not split into {nb} prompts")
    dh = width // heads

    def split(a):  # B*n x D -> B x heads x n x d_h
        return a.reshape(nb, len(a) // nb, heads, dh).transpose(0, 2, 1, 3)

    def merge(a):  # B x heads x n x d_h -> B*n x D
        return a.transpose(0, 2, 1, 3).reshape(-1, width)

    s = np.asarray(1.0 / math.sqrt(dh), dtype=q.data.dtype)
    qh, kh, vh = split(q.data * s), split(k.data), split(v.data)
    v1 = np.empty((nb, heads, dh + 1, rows // nb), dtype=v.data.dtype)  # [v | 1]^T
    v1[:, :, :dh] = vh.swapaxes(2, 3)
    v1[:, :, dh] = 1

    def exp_scores(shift):
        e = kh @ qh.swapaxes(2, 3)  # keys x queries: numpy reduces columns faster than rows
        if padded:
            e += np.where(mask, 0.0, -np.inf).astype(q.data.dtype)[:, None, :, None]
        if shift:
            e -= e.max(axis=2, keepdims=True)
        np.exp(e, out=e)
        return e, v1 @ e  # (e^T v)^T, and each query's sum r of e in the last row

    with np.errstate(over="ignore", invalid="ignore"):
        e, ev = exp_scores(False)
    if (not np.logical_and.reduce(np.isfinite(ev), axis=None)  # overflow or underflow
            or np.minimum.reduce(ev[:, :, dh], axis=None) < _MIN_SUM):
        e, ev = exp_scores(True)
    r = ev[:, :, dh:]
    ot = ev[:, :, :dh] / r  # the output o, transposed per head

    def bw(g):
        # p = e / r is the softmax, keys x queries: d v = p g and
        # d z = p * (v g^T - g.o), g.o one number per query. Each L x Lq term
        # takes e and the Lq x d_h g / r, so the block is only read.
        gt = split(g).swapaxes(2, 3) / r
        v._accumulate(merge(e @ gt.swapaxes(2, 3)))
        gz = vh @ gt  # keys x queries, as e
        gz -= (gt * ot).sum(axis=2, keepdims=True)
        gz *= e
        gq = kh.swapaxes(2, 3) @ gz
        gq *= s
        q._accumulate(merge(gq.swapaxes(2, 3)))
        k._accumulate(merge(gz @ qh))

    return _result(merge(ot.swapaxes(2, 3)), (q, k, v), "attention", bw)


# -- reductions and losses --------------------------------------------------

def bce_with_logits(logits, targets, weights=None):
    """Binary cross-entropy computed stably from logits, weighted per pair.

    Uses max(x,0) - x*y + log1p(exp(-|x|)) elementwise, which is finite for
    any finite logit, and returns the sum of ``weights`` (None: all 1) times
    those terms. A pair of weight 0 adds exactly 0 to the loss and to its
    logit's gradient; weights of 1/size give the mean.
    """
    y = np.asarray(targets, dtype=logits.dtype)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=logits.dtype)
    if y.shape != logits.shape or w.shape != logits.shape:
        raise DimensionError(f"targets {y.shape} and weights {w.shape} != logits {logits.shape}")
    x = logits.data
    elem = w * (np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x))))
    return _result(np.asarray(elem.sum(), dtype=logits.dtype), (logits,), "bce_with_logits",
                   lambda g: logits._accumulate(w * (sigmoid(x) - y) * g))


# -- backward pass ----------------------------------------------------------

def backward(loss):
    """Populate grads of every requires_grad leaf reachable from `loss`.

    Leaf grads accumulate additively across uses and across repeated calls;
    each interior node's grad is set to None once its backward has run.
    """
    if loss.data.ndim != 0:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")

    nodes = graph_nodes(loss)
    loss._accumulate(np.asarray(1.0, dtype=loss.dtype))
    for node in reversed(nodes):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


def graph_nodes(root):
    """Every graph node reachable from `root`, each after its parents. Nodes
    without requires_grad have only such parents, so they never reorder the rest."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents)
    return order
