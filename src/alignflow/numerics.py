"""Dense float64 tensors with reverse-mode differentiation.

Everything above this module (alignment likelihoods, coupling flows, the
duration GAN, the text encoder) is built on the small op set here. Design
choices worth knowing:

- float64 only; finite-difference gradient checks need the precision.
- Tensors are tiny, so a training step's time goes to Python and numpy call
  overhead per op, not to arithmetic; the hot paths (``_make``, ``AdamW.step``)
  keep their numpy calls few.
- ``AdamW`` owns the storage of the parameters it is given: each ``p.data``
  becomes a view into one flat buffer. Write a parameter in place
  (``p.data[...] = x``), never rebind it; ``AdamW.step`` raises if one was.
- The tape is per-computation: each forward op records its parents and a
  vector-Jacobian closure on the output tensor, and ``backward`` walks that
  graph once. Gradients accumulate only into leaves (tensors you created
  directly, typically parameters).
- Any op producing NaN/Inf from finite inputs raises ``NumericError``
  immediately instead of letting the poison spread.
- Layers are fused ops, one tape node each, because a step's time is per
  node: ``attention`` (all heads of a multi-head self-attention; the encoder
  blocks and the coupling flows), ``conv1d`` with its bias (the coupling
  layers and the duration towers), ``linear`` (``x @ w + b``: the encoder FFN
  and heads) and ``add_layer_norm`` (the encoder's post-norm residual). Each
  has a hand-written VJP, and each is bit-identical, forward and backward, to
  the chain of smaller ops it replaced. Each raises ``NumericError`` on
  exactly the inputs where that chain raised: ``attention`` checks the
  stacked q/k/v and the scaled, biased scores, ``add_layer_norm`` the sum,
  and ``_make`` every output.
- ``conv1d`` is im2col + one BLAS matmul forward and two in its VJP. BLAS
  picks its own summation order, so it agrees with the per-tap contraction
  it replaced, or a scalar loop, to 1e-12 (relative and absolute), not bit
  for bit; its fused bias is still bit-identical to the add it replaced.
- A VJP may return ``None`` for a parent that takes no gradient at backward
  time (a constant, or a parameter under ``frozen``); ``conv1d`` skips that
  work.
- ``no_grad`` turns recording off for the calling thread: ops still run
  their finite checks, but their outputs keep no parents and no VJP, so an
  inference forward retains nothing once a layer is done with it. It is
  thread-local, so a thread inside it leaves other threads' tapes alone.
- ``attention`` softmaxes its scores in place: the forward holds one
  (H, T, T) buffer, the map ``attention_probs`` returns, and the VJP two.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested op."""


class NumericError(ArithmeticError):
    """An op produced a non-finite value."""


def _as_array(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """A numpy float64 array plus optional participation in the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single value, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Copy of the value with no tape linkage."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # operator sugar; scalars and ndarrays are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return _getitem(self, idx)

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def backward(self):
        """Populate ``grad`` on every requires_grad leaf reachable from this scalar.

        Repeated calls without ``zero_grad`` accumulate. Raises ``ShapeError``
        if called on a non-scalar.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward() needs a scalar loss, got shape {self.data.shape}"
            )
        topo = _toposort(self)
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not _wants_grad(parent):
                    continue
                key = id(parent)
                grads[key] = pg if key not in grads else grads[key] + pg


def _wants_grad(t: Tensor) -> bool:
    return t.requires_grad or t._vjp is not None


def _toposort(root: Tensor) -> list[Tensor]:
    # iterative DFS; training graphs routinely exceed Python's recursion limit
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and _wants_grad(p):
                stack.append((p, False))
    return order


def ensure_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _GradMode(threading.local):
    """Per-thread switch for tape recording; every thread starts recording."""

    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Record no tape in this thread: ops still check their outputs for
    non-finite values, but return tensors with no parents and no VJP."""
    saved = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = saved


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    if not np.isfinite(data).all():
        raise NumericError(f"{op} produced a non-finite value")
    out = Tensor(data)
    if _grad_mode.enabled and any(_wants_grad(p) for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / broadcasting ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    return _make(
        data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
        "add",
    )


def sub(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")
    return _make(
        data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
        "sub",
    )


def mul(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    return _make(
        data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        ),
        "mul",
    )


def div(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    try:
        data = a.data / b.data
    except ValueError:
        raise ShapeError(f"div: shapes {a.shape} and {b.shape} do not broadcast")
    return _make(
        data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
        "div",
    )


def neg(a) -> Tensor:
    a = ensure_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,), "neg")


def power(a, p: float) -> Tensor:
    a = ensure_tensor(a)
    p = float(p)
    with np.errstate(over="ignore"):
        data = a.data**p
    return _make(data, (a,), lambda g: (g * p * a.data ** (p - 1),), "pow")


def exp(a) -> Tensor:
    a = ensure_tensor(a)
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    return _make(data, (a,), lambda g: (g * data,), "exp")


def log(a) -> Tensor:
    a = ensure_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    return _make(data, (a,), lambda g: (g / a.data,), "log")


def tanh(a) -> Tensor:
    a = ensure_tensor(a)
    data = np.tanh(a.data)
    return _make(data, (a,), lambda g: (g * (1.0 - data * data),), "tanh")


def sigmoid(a) -> Tensor:
    a = ensure_tensor(a)
    with np.errstate(over="ignore"):
        data = 1.0 / (1.0 + np.exp(-a.data))
    return _make(data, (a,), lambda g: (g * data * (1.0 - data),), "sigmoid")


def relu(a) -> Tensor:
    a = ensure_tensor(a)
    data = np.maximum(a.data, 0.0)
    return _make(data, (a,), lambda g: (g * (a.data > 0.0),), "relu")


def clamp(a, lo: float, hi: float) -> Tensor:
    a = ensure_tensor(a)
    data = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)
    return _make(data, (a,), lambda g: (g * inside,), "clamp")


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ for {a.shape} @ {b.shape}")
    data = a.data @ b.data
    return _make(data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g), "matmul")


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w + b`` as one tape node; x: (N, D), w: (D, M), b: (M,).

    The result equals the matmul-then-add chain byte for byte.
    """
    x, w, b = ensure_tensor(x), ensure_tensor(w), ensure_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear expects x (N,D), w (D,M) and b (M,), got "
                         f"{x.shape}, {w.shape}, {b.shape}")
    data = x.data @ w.data
    data += b.data
    return _make(data, (x, w, b), lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0)),
                 "linear")


def transpose(a) -> Tensor:
    a = ensure_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {a.shape}")
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,), "transpose")


def reshape(a, shape) -> Tensor:
    a = ensure_tensor(a)
    old = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),), "reshape")


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [ensure_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tuple(ts), vjp, "concat")


def _getitem(a: Tensor, idx) -> Tensor:
    data = a.data[idx]
    if np.isscalar(data) or data.ndim == 0:
        data = np.asarray(data)
    shape = a.shape

    def vjp(g):
        buf = np.zeros(shape)
        buf[idx] += g  # basic indexing never aliases, so += is exact
        return (buf,)

    return _make(data.copy(), (a,), vjp, "getitem")


def take_rows(table, ids) -> Tensor:
    """Row gather (embedding lookup); gradient scatter-adds into the table."""
    table = ensure_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"take_rows expects a 2-D table, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"take_rows: ids outside [0, {table.shape[0]}): {ids.min()}..{ids.max()}"
        )
    data = table.data[ids]

    def vjp(g):
        buf = np.zeros(table.shape)
        np.add.at(buf, ids, g)
        return (buf,)

    return _make(data, (table,), vjp, "take_rows")


# ---------------------------------------------------------------------------
# reductions and normalizations
# ---------------------------------------------------------------------------


def summation(a, axis=None) -> Tensor:
    a = ensure_tensor(a)
    data = a.data.sum(axis=axis)
    shape = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _make(np.asarray(data), (a,), vjp, "sum")


def mean(a, axis=None) -> Tensor:
    a = ensure_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    return summation(a, axis=axis) * (1.0 / n)


def mse(a, b) -> Tensor:
    """Mean squared error over all elements."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes {a.shape} and {b.shape} differ")
    d = sub(a, b)
    return mean(mul(d, d))


def softmax(a, axis: int = -1) -> Tensor:
    a = ensure_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - inner),)

    return _make(data, (a,), vjp, "softmax")


def _layer_norm_node(s: np.ndarray, parents: tuple[Tensor, ...], axis: int, eps: float,
                     op: str) -> Tensor:
    """Layer norm of ``s`` as one node whose every parent receives the same
    gradient (each parent's shape is ``s.shape``). The means are
    ``np.add.reduce(...) / n``: what ``ndarray.mean`` computes, without its
    Python wrapper."""
    n = s.shape[axis]
    xc = s - np.add.reduce(s, axis=axis, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=axis, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    data = xc * inv

    def vjp(g):
        g_mean = np.add.reduce(g, axis=axis, keepdims=True) / n
        gy_mean = np.add.reduce(g * data, axis=axis, keepdims=True) / n
        return (inv * (g - g_mean - data * gy_mean),) * len(parents)

    return _make(data, parents, vjp, op)


def layer_norm(a, axis: int = -1, eps: float = 1e-8) -> Tensor:
    """Normalize to zero mean, unit variance along ``axis`` (no learned affine)."""
    a = ensure_tensor(a)
    return _layer_norm_node(a.data, (a,), axis, eps, "layer_norm")


def add_layer_norm(a, b, axis: int = -1, eps: float = 1e-8) -> Tensor:
    """``layer_norm(a + b)`` as one node: the post-norm residual of a
    transformer block. ``a`` and ``b`` must have the same shape.

    The result and gradients equal the add-then-layer_norm chain byte for
    byte, and it raises ``NumericError`` exactly where that chain did: on a
    non-finite sum, and through ``_make`` on a non-finite output.
    """
    a, b = ensure_tensor(a), ensure_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add_layer_norm: shapes {a.shape} and {b.shape} differ")
    s = a.data + b.data
    if not np.isfinite(s).all():
        raise NumericError("add_layer_norm produced a non-finite value")
    return _layer_norm_node(s, (a, b), axis, eps, "add_layer_norm")


def attention_probs(q: np.ndarray, k: np.ndarray, scale: float,
                    bias: np.ndarray | None = None) -> np.ndarray:
    """Attention maps softmax(q @ k.T * scale + bias) of every head, as numpy.

    q, k: (H, T, d); ``bias`` is a constant additive (T, T) score bias or
    None. Returns the (H, T, T) row-stochastic maps in one buffer: the scores
    are shifted, exponentiated and normalised in place. This is the forward
    of ``attention`` up to the weighted sum of v, so a map read through here
    is the map the op uses, byte for byte. Raises ``NumericError`` on a
    non-finite score (the softmax would zero a -inf entry without a trace).
    """
    scores = np.matmul(q, np.ascontiguousarray(k.transpose(0, 2, 1)))
    scores *= scale
    if bias is not None:
        try:
            scores += bias
        except ValueError:
            raise ShapeError(f"attention: bias {np.shape(bias)} does not fit scores "
                             f"{scores.shape[1:]}")
    if not np.isfinite(scores).all():
        raise NumericError("attention produced a non-finite score")
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def attention(x, heads, scale: float, bias: np.ndarray | None = None) -> Tensor:
    """Multi-head self-attention as one tape node.

    x: (T, D); heads: (wq, wk, wv) per head, each (D, d). Returns (T, H*d) with
    head h in columns h*d:(h+1)*d: softmax(x@wq @ (x@wk).T * scale + bias) @ x@wv.
    ``bias`` is a constant additive (T, T) score bias or None.

    The forward is bit-identical to the per-head chain of matmul, transpose,
    mul, add, softmax, matmul and concat ops: each product runs the same 2-D
    BLAS call on operands of the same layout. The chain's transpose op made
    k.T contiguous, so this one does too. It raises ``NumericError`` exactly
    where that chain would: on a non-finite q, k or v, on a non-finite score
    before the softmax (in ``attention_probs``), and, through ``_make``, on a
    non-finite output. Softmax of finite scores is finite, so nothing in
    between needs a check. The maps take one (H, T, T) buffer and the VJP two.
    """
    x = ensure_tensor(x)
    n = len(heads)
    ws = [ensure_tensor(w) for w in itertools.chain(*zip(*heads))]  # all wq, all wk, all wv
    if x.ndim != 2 or n == 0 or any(w.shape != ws[0].shape or w.shape[0] != x.shape[1]
                                    for w in ws):
        raise ShapeError(f"attention: x {x.shape} needs one or more heads of equal (D, d) "
                         f"weights with D = x.shape[1], got {[w.shape for w in ws]}")
    length, d = x.shape[0], ws[0].shape[1]
    w = np.array([t.data for t in ws])  # (3H, D, d)
    qkv = np.matmul(x.data, w)  # (3H, T, d)
    if not np.isfinite(qkv).all():
        raise NumericError("attention produced a non-finite q, k or v")
    q, k, v = qkv[:n], qkv[n : 2 * n], qkv[2 * n :]
    att = attention_probs(q, k, scale, bias)  # (H, T, T)
    data = np.matmul(att, v).transpose(1, 0, 2).reshape(length, n * d)

    def vjp(g):
        gh = g.reshape(length, n, d).transpose(1, 0, 2)  # (H, T, d)
        g_att = np.matmul(gh, v.transpose(0, 2, 1))
        g_qkv = np.empty_like(qkv)
        np.matmul(att.transpose(0, 2, 1), gh, out=g_qkv[2 * n :])
        # the softmax VJP att * (g_att - sum(g_att * att)), formed in g_att
        g_att -= (g_att * att).sum(axis=-1, keepdims=True)
        g_att *= att
        g_att *= scale
        np.matmul(g_att, k, out=g_qkv[:n])
        np.matmul(g_att.transpose(0, 2, 1), q, out=g_qkv[n : 2 * n])
        g_w = np.matmul(x.data.T, g_qkv)
        # sum over the 3H projections of g_qkv[i] @ w[i].T, as one product
        g_x = g_qkv.transpose(1, 0, 2).reshape(length, -1) @ w.transpose(1, 0, 2).reshape(
            w.shape[1], -1).T
        return (g_x, *g_w)

    return _make(data, (x, *ws), vjp, "attention")


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def conv1d(x, w, b=None) -> Tensor:
    """1-D convolution over the last axis, stride 1, same-padding, plus an
    optional per-output-channel bias, as one tape node.

    x: (C_in, L), w: (C_out, C_in, K), b: (C_out,) or None -> (C_out, L).
    Padding is zeros, (K-1)//2 on the left and the remainder on the right.

    Lowered to im2col + one BLAS matmul: the K shifted copies of x form a
    (C_in*K, L) column matrix and the output is ``w.reshape(C_out, C_in*K)``
    times it. The VJP is two more matmuls plus a col2im that adds the K taps
    back in ascending order. BLAS sums in its own order, so the result is
    within 1e-12 (relative and absolute) of a per-tap contraction or a
    scalar loop, not byte-equal to them; the fused bias is still byte-equal
    to ``conv1d(x, w) + reshape(b, (-1, 1))``.
    """
    x, w = ensure_tensor(x), ensure_tensor(w)
    if x.ndim != 2 or w.ndim != 3:
        raise ShapeError(f"conv1d expects x (C,L) and w (O,C,K), got {x.shape}, {w.shape}")
    cin, length = x.shape
    cout, cin_w, k = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv1d: x has {cin} channels but kernel expects {cin_w}")
    pl = (k - 1) // 2
    # windows[:, i, t] = x[:, t + i - pl], zero where that falls outside [0, L)
    taps = []
    windows = np.zeros((cin, k, length))
    for i in range(k):
        off = i - pl
        lo, hi = max(0, -off), min(length, length - off)
        if lo < hi:
            windows[:, i, lo:hi] = x.data[:, lo + off : hi + off]
            taps.append((i, lo, hi, off))
    cols = windows.reshape(cin * k, length)
    w2 = w.data.reshape(cout, cin * k)
    data = w2 @ cols
    parents = (x, w)
    if b is not None:
        b = ensure_tensor(b)
        if b.shape != (cout,):
            raise ShapeError(f"conv1d: bias {b.shape} does not match {cout} output channels")
        data += b.data[:, None]
        parents = (x, w, b)

    def vjp(g):
        # skip the cotangents nothing will use: a constant input (the duration
        # critic's features) or a kernel frozen for the generator's update
        gx = gw = None
        if _wants_grad(x):
            # col2im: tap i of column t came from x[:, t + i - pl]
            gcols = (w2.T @ g).reshape(cin, k, length)
            gx = np.zeros((cin, length))
            for i, lo, hi, off in taps:
                gx[:, lo + off : hi + off] += gcols[:, i, lo:hi]
        if _wants_grad(w):
            gw = (g @ cols.T).reshape(cout, cin, k)
        return (gx, gw) if b is None else (gx, gw, g.sum(axis=1))

    return _make(data, parents, vjp, "conv1d")


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------


class Rng:
    """Seeded PCG64 stream (numpy's documented generator).

    The same seed yields the same stream across runs and platforms as long as
    calls happen in the same order. ``child`` derives an independent stream
    deterministically, so separate concerns (corpus sampling, alignment noise,
    GAN noise) never perturb each other's sequences.
    """

    def __init__(self, seed: int, _entropy=None):
        self.seed = int(seed)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(_entropy if _entropy is not None else self.seed))
        )

    def normal(self, shape=None) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, shape=None):
        out = self._gen.integers(low, high, size=shape)
        return int(out) if shape is None else out

    def child(self, tag: int) -> "Rng":
        return Rng(self.seed, _entropy=(self.seed, int(tag)))


def init_uniform(rng: Rng, shape, fan_in: int, requires_grad: bool = True) -> Tensor:
    """Parameter init: uniform in [-k, k], k = 1/sqrt(fan_in)."""
    k = 1.0 / math.sqrt(max(1, fan_in))
    return Tensor(rng.uniform(-k, k, shape), requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


@contextmanager
def frozen(params):
    """Temporarily drop params out of gradient accumulation.

    Must stay in effect through ``backward`` — the tape checks requires_grad
    at backward time, not at op creation.
    """
    params = list(params)
    saved = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, s in zip(params, saved):
            p.requires_grad = s


class Module:
    """Base for anything with parameters.

    ``param`` and ``child`` register a tensor (``None`` for an absent optional
    one) or a sub-module under its checkpoint name and return it unchanged.
    ``named_params`` lists them in registration order, a child's under its
    prefix; names and order are the checkpoint format (docs/checkpoint_format.md).
    """

    def param(self, name: str, tensor: Tensor | None) -> Tensor | None:
        self.__dict__.setdefault("_members", []).append((name, tensor))
        return tensor

    def child(self, name: str, module: "Module") -> "Module":
        return self.param(name, module)

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = []
        for name, member in self.__dict__.get("_members", ()):
            if isinstance(member, Module):
                out += [(f"{name}.{n}", t) for n, t in member.named_params()]
            elif member is not None:
                out.append((name, member))
        return out

    def params(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamWConfig:
    """Adam with decoupled weight decay; defaults follow the training recipe
    used throughout this project (lr decays by 0.999^(1/8) per epoch). These
    are the only copies of the defaults: ``AdamW`` and the run config read them."""

    lr: float = 2e-4
    beta1: float = 0.8
    beta2: float = 0.99
    weight_decay: float = 0.01
    eps: float = 1e-9
    lr_decay: float = 0.999 ** (1 / 8)

    def build(self, params) -> "AdamW":
        return AdamW(params, **dataclasses.asdict(self))


class AdamW:
    """AdamW (Loshchilov & Hutter, arXiv 1711.05101) over one flat buffer.

    The constructor copies its parameters into one contiguous float64 array
    and rebinds each ``p.data`` to a view of its slice, so a step is a fixed
    handful of in-place ufuncs over the whole buffer instead of a loop over
    parameters. From then on a parameter must be written in place
    (``p.data[...] = x``), never rebound; ``step`` raises if one was.
    """

    def __init__(self, params, **hyper):
        """``hyper`` takes any ``AdamWConfig`` field by keyword; the rest keep their defaults."""
        cfg = AdamWConfig(**hyper)
        self.params = [p for p in params if p.requires_grad]
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("AdamW: a parameter is listed more than once")
        self.lr0 = cfg.lr
        self.beta1 = cfg.beta1
        self.beta2 = cfg.beta2
        self.weight_decay = cfg.weight_decay
        self.eps = cfg.eps
        self.lr_decay = cfg.lr_decay
        self.epoch = 0
        self.t = 0
        # offsets[i]:offsets[i + 1] is parameter i's slice of every buffer
        self._offsets = [0, *itertools.accumulate(p.size for p in self.params)]
        total = self._offsets[-1]
        self._flat = np.empty(total)
        for p, lo, hi in zip(self.params, self._offsets, self._offsets[1:]):
            self._flat[lo:hi] = p.data.reshape(-1)
            p.data = self._flat[lo:hi].reshape(p.shape)
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self._grad = np.empty(total)
        self._s1 = np.empty(total)  # scratch: in-place ops avoid a fresh
        self._s2 = np.empty(total)  # temporary (an mmap) per op per step

    @property
    def lr(self) -> float:
        return self.lr0 * self.lr_decay**self.epoch

    def set_epoch(self, epoch: int):
        self.epoch = int(epoch)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """One update; params whose grad is unset are skipped.

        Each run of consecutive params with a grad is updated as one slice of
        the buffers, so with every grad set the update runs once, over all of it.
        """
        self.t += 1
        lr = self.lr
        first = 0
        for i, p in enumerate(self.params):
            if p.data.base is not self._flat:
                raise RuntimeError(
                    f"AdamW: parameter {i} (shape {p.shape}) no longer views the "
                    f"optimizer's buffer; write p.data[...] = x instead of rebinding it"
                )
            if p.grad is None:
                self._update(first, i, lr)
                first = i + 1
        self._update(first, len(self.params), lr)

    def _update(self, first: int, stop: int, lr: float):
        """The AdamW update of params ``first:stop`` (all with a grad), as one
        slice of the buffers.

        Each element sees the IEEE ops of the per-parameter form, in its order:
        p -= (lr*wd)*p; m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*(g*g);
        p -= (lr*m_hat) / (sqrt(v_hat) + eps).
        """
        if first == stop:
            return
        lo, hi = self._offsets[first], self._offsets[stop]
        p, m, v = self._flat[lo:hi], self._m[lo:hi], self._v[lo:hi]
        g, s1, s2 = self._grad[lo:hi], self._s1[lo:hi], self._s2[lo:hi]
        np.concatenate([q.grad for q in self.params[first:stop]], axis=None, out=g)
        np.multiply(p, lr * self.weight_decay, out=s1)
        p -= s1
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - self.beta2
        v += s1
        np.divide(m, 1.0 - self.beta1**self.t, out=s1)
        s1 *= lr
        np.divide(v, 1.0 - self.beta2**self.t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        p -= s1


# ---------------------------------------------------------------------------
# gradient oracle
# ---------------------------------------------------------------------------


def check_grad(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` must be a deterministic tensor-to-scalar function. Error per
    coordinate is |analytic - numeric| / max(1, |numeric|); the max over
    coordinates is returned (0 means perfect agreement).
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.size != 1:
        raise ShapeError(f"check_grad: f must return a scalar, got {out.shape}")
    out.backward()
    analytic = probe.grad if probe.grad is not None else np.zeros(probe.shape)

    worst = 0.0
    flat = x.data.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        fp = float(f(Tensor(bumped.reshape(x.shape))).data)
        bumped[i] -= 2 * h
        fm = float(f(Tensor(bumped.reshape(x.shape))).data)
        numeric = (fp - fm) / (2.0 * h)
        err = abs(analytic.reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
