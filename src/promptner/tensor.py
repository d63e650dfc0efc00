"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array and records the operations applied to it on
an implicit tape (each result keeps references to its parents plus a backward
closure). Calling :func:`backward` on a scalar result walks the recorded
graph in reverse topological order and accumulates ``d loss / d tensor`` into
every ``requires_grad`` tensor's ``grad`` slot.

Only the operations the model needs are implemented, and broadcasting is
restricted to scalars so every backward rule stays small and auditable. A
batch of B prompts padded to L tokens is one B*L x D tensor; :func:`attention`
masks the padded keys. Inputs are never mutated. Leaf gradients accumulate
additively (running backward twice without zeroing doubles them); interior
gradients are released as soon as their node's backward has run.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, expit

from .errors import ContractError, DimensionError

_SQRT2 = np.sqrt(2.0)  # a float64 scalar: the GELU forward runs in float64
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)  # a Python float keeps x's dtype


class Tensor:
    """N-dimensional array with an attached gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, dtype=np.float32, _parents=(), _op="leaf"):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = None
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
        if self.grad is None:
            # a copy: one upstream array may be handed to several parents
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g.astype(self.data.dtype, copy=False)


def _result(data, parents, op):
    rg = any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=rg, dtype=data.dtype, _parents=tuple(parents), _op=op)
    return out


def _as_tensor(x, like):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _check_broadcast(a, b):
    """Allow equal shapes or a scalar operand only (biases go through linear)."""
    if a.shape != b.shape and a.ndim and b.ndim:
        raise DimensionError(f"shapes {a.shape} and {b.shape} are not broadcast-compatible "
                             "(only scalar broadcast supported)")


def _reduce_to_shape(g, shape):
    """Sum gradient g down to `shape` (undo a scalar broadcast)."""
    return g if g.shape == shape else g.sum()


# -- elementwise ------------------------------------------------------------

def add(a, b):
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = _as_tensor(b, a)
    _check_broadcast(a.data, b.data)
    out = _result(a.data + b.data, (a, b), "add")

    def bw(g):
        if a.requires_grad:
            a._accumulate(_reduce_to_shape(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to_shape(g, b.data.shape))

    out._backward = bw
    return out


def mul(a, b):
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = _as_tensor(b, a)
    _check_broadcast(a.data, b.data)
    out = _result(a.data * b.data, (a, b), "mul")

    def bw(g):
        if a.requires_grad:
            a._accumulate(_reduce_to_shape(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to_shape(g * a.data, b.data.shape))

    out._backward = bw
    return out


def sigmoid(a):
    y = expit(a.data)
    out = _result(y.astype(a.dtype, copy=False), (a,), "sigmoid")

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * y * (1.0 - y))

    out._backward = bw
    return out


def relu(a):
    out = _result(np.maximum(a.data, 0), (a,), "relu")

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    out._backward = bw
    return out


def gelu(a):
    """Exact (erf-based) GELU; the float64 cdf is kept in the input dtype."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    out = _result((x * cdf).astype(a.dtype, copy=False), (a,), "gelu")
    cdf = cdf.astype(a.dtype, copy=False)

    def bw(g):
        if a.requires_grad:
            pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
            a._accumulate(g * (cdf + x * pdf))

    out._backward = bw
    return out


def dropout(a, p, rng):
    """Recorded mask multiply; backward is exact for the sampled mask."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability {p} outside [0, 1)")
    if p == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= p).astype(a.dtype) / np.asarray(1.0 - p, dtype=a.dtype)
    out = _result(a.data * mask, (a,), "dropout")

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    out._backward = bw
    return out


# -- linear algebra ---------------------------------------------------------

def linear(x, w, b=None):
    """``x @ w``, plus the row vector ``b`` on every row when given, as one
    tape node (2-D ``x`` and ``w``)."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise DimensionError("linear requires 2-D operands")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"inner dimensions disagree: {x.shape} @ {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise DimensionError(f"bias shape {b.shape} != ({w.shape[1]},)")
    y = x.data @ w.data
    if b is not None:
        y += b.data
    out = _result(y, (x, w) if b is None else (x, w, b), "linear")

    def bw(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ g)
        if b is not None and b.requires_grad:
            b._accumulate(g.sum(axis=0))

    out._backward = bw
    return out


matmul = linear  # x @ w: a linear node without a bias


def transpose(a):
    if a.data.ndim != 2:
        raise DimensionError("transpose requires a 2-D tensor")
    out = _result(a.data.T.copy(), (a,), "transpose")

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.T)

    out._backward = bw
    return out


def gather_rows(a, idx):
    """Select rows of a 2-D tensor; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.data.ndim != 2:
        raise DimensionError("gather_rows requires a 2-D tensor")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ContractError(f"row index out of range for shape {a.shape}")
    out = _result(a.data[idx], (a,), "gather_rows")

    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, g)  # scattered in place: no table-sized temporary

    out._backward = bw
    return out


def concat_cols(tensors):
    """Concatenate 2-D tensors along the last axis."""
    if not tensors:
        raise ContractError("concat_cols needs at least one tensor")
    rows = tensors[0].shape[0]
    for t in tensors:
        if t.data.ndim != 2 or t.shape[0] != rows:
            raise DimensionError("concat_cols operands must be 2-D with equal row counts")
    out = _result(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors), "concat_cols")
    widths = [t.shape[1] for t in tensors]

    def bw(g):
        off = 0
        for t, w in zip(tensors, widths):
            if t.requires_grad:
                t._accumulate(g[:, off:off + w])
            off += w

    out._backward = bw
    return out


# -- normalization ----------------------------------------------------------

def layer_norm(x, gamma, beta, eps=1e-5):
    """Per-row normalization over the last axis, then affine."""
    d = x.shape[-1] if x.data.ndim else 0
    if d == 0:
        raise DimensionError("layer_norm needs a non-empty last dimension")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"gamma/beta must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = _result((xhat * gamma.data + beta.data).astype(x.dtype, copy=False),
                  (x, gamma, beta), "layer_norm")

    def bw(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gg = g * gamma.data
            m1 = gg.mean(axis=-1, keepdims=True)
            m2 = (gg * xhat).mean(axis=-1, keepdims=True)
            x._accumulate((gg - m1 - xhat * m2) * inv)

    out._backward = bw
    return out


# -- attention --------------------------------------------------------------

def attention(q, k, v, heads, mask=None):
    """Multi-head scaled dot-product attention over B prompts of L rows each.

    q, k and v are B*L x D; ``mask`` is the (B, L) bool array of real tokens
    (None: one prompt of all rows), and each row attends to the real keys of
    its own prompt only. Head h owns column block h (width d_h = D / heads)
    and computes softmax(q_h k_h^T / sqrt(d_h)) v_h into the same block of
    the result. The softmax is computed shift-invariantly per row, so adding
    one row vector to every key leaves the output unchanged.
    """
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(f"attention needs equal 2-D shapes, got "
                             f"{q.shape}, {k.shape}, {v.shape}")
    rows, width = q.shape
    if heads < 1 or width % heads:
        raise DimensionError(f"width {width} is not divisible by {heads} heads")
    mask = np.ones((1, rows), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.size != rows:
        raise DimensionError(f"mask shape {mask.shape} does not cover {rows} rows")
    padded = not mask.all()  # the -inf bias is skipped when no key is padding
    if padded and not mask.any(axis=1).all():
        raise ContractError("every prompt needs at least one real token")
    nb, length = mask.shape
    dh = width // heads

    def split(a):  # B*L x D -> B x heads x L x d_h
        return a.reshape(nb, length, heads, dh).transpose(0, 2, 1, 3)

    def merge(a):  # B x heads x L x d_h -> B*L x D
        return a.transpose(0, 2, 1, 3).reshape(rows, width)

    s = np.asarray(1.0 / math.sqrt(dh), dtype=q.dtype)
    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    z = (qh @ kh.transpose(0, 1, 3, 2)) * s
    if padded:
        z += np.where(mask, 0.0, -np.inf).astype(q.dtype)[:, None, None, :]
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = _result(merge(p @ vh), (q, k, v), "attention")

    def bw(g):
        gh = split(g)
        if v.requires_grad:
            v._accumulate(merge(p.transpose(0, 1, 3, 2) @ gh))
        gp = gh @ vh.transpose(0, 1, 3, 2)
        gz = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * s
        if q.requires_grad:
            q._accumulate(merge(gz @ kh))
        if k.requires_grad:
            k._accumulate(merge(gz.transpose(0, 1, 3, 2) @ qh))

    out._backward = bw
    return out


# -- reductions and losses --------------------------------------------------

def sum_all(a):
    out = _result(np.asarray(a.data.sum(), dtype=a.dtype), (a,), "sum")

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, 1.0) * g)

    out._backward = bw
    return out


def bce_with_logits(logits, targets, reduction="sum"):
    """Binary cross-entropy computed stably from logits.

    Uses max(x,0) - x*y + log1p(exp(-|x|)) elementwise, which is finite for
    any finite logit. ``reduction`` is "sum" or "mean" over all elements.
    """
    y = np.asarray(targets, dtype=logits.dtype)
    if y.shape != logits.shape:
        raise DimensionError(f"targets shape {y.shape} != logits shape {logits.shape}")
    if reduction not in ("sum", "mean"):
        raise ContractError(f"unknown reduction {reduction!r}")
    x = logits.data
    elem = np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x)))
    total = elem.sum() if reduction == "sum" else elem.mean()
    out = _result(np.asarray(total, dtype=logits.dtype), (logits,), "bce_with_logits")

    def bw(g):
        if logits.requires_grad:
            d = (expit(x) - y).astype(x.dtype, copy=False)
            if reduction == "mean":
                d = d / x.size
            logits._accumulate(d * g)

    out._backward = bw
    return out


# -- backward pass ----------------------------------------------------------

def backward(loss):
    """Populate grads of every requires_grad leaf reachable from `loss`.

    Leaf grads accumulate additively across uses and across repeated calls;
    each interior node's grad is set to None once its backward has run.
    """
    if loss.data.ndim != 0:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")

    topo = _toposort(loss)
    loss._accumulate(np.asarray(1.0, dtype=loss.dtype))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def graph_nodes(root):
    """All graph nodes reachable from `root` (for inspection, e.g. relu kinks)."""
    out = []
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node._parents)
    return out
