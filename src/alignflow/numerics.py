"""Dense float64 tensors with reverse-mode differentiation.

Everything above this module (alignment likelihoods, coupling flows, the
duration GAN, the text encoder) is built on the small op set here. Design
choices worth knowing:

- float64 only; finite-difference gradient checks need the precision.
- Tensors are tiny, so a training step's time goes to Python and numpy call
  overhead per op, not to arithmetic; the hot paths keep their numpy calls few.
  ``_make`` builds every node with ``object.__new__``, not ``Tensor.__init__``;
  it, the fused ops and ``_unbroadcast`` call the ufunc reductions behind
  ``.all``/``.max``/``.sum``, without their Python wrappers.
- ``AdamW`` owns the storage of the parameters it is given: each ``p.data``
  becomes a view into one flat buffer. Write a parameter in place
  (``p.data[...] = x``), never rebind it; ``AdamW.step`` raises if one was.
- The tape is per-computation: each forward op records its parents and a
  vector-Jacobian closure on the output tensor, and ``backward`` walks that
  graph once. Gradients accumulate only into leaves (tensors you created
  directly, typically parameters).
- Every tensor takes a number from one process-wide counter when it is
  built, so it outranks its parents. ``backward`` pops the newest node a
  cotangent has reached from a heap, as PyTorch's engine orders ready nodes
  by sequence number: a popped node's consumers are all done, and the graph
  is never sorted. A node's cotangents are summed newest consumer first;
  where a node has at most two consumers this is the sum a depth-first walk
  gave, bit for bit, and with three or more it may associate differently
  (within 1e-12 relative on the speaker condition of four coupling layers).
- Any op producing NaN/Inf from finite inputs raises ``NumericError``
  immediately instead of letting the poison spread.
- Layers are fused ops, one tape node each, because a step's time is per node:
  ``attention`` (all heads of a multi-head self-attention, from one (3H, D, d)
  q/k/v leaf, times the output projection ``wo``; the encoder blocks and the
  coupling flows), ``conv1d`` with its bias (the coupling layers and the
  duration towers), ``linear`` (``x @ w + b``: the encoder heads), ``ffn``
  (linear, relu, linear: the encoder's position-wise net), ``add_layer_norm``
  (the encoder's post-norm residual), ``affine_coupling`` (a coupling layer's
  output ``[xa, xb * exp(s) + t]``, 5 nodes before) and ``aligned_nll`` (the
  training loss, 14 nodes before). Each has a hand-written VJP, and each is
  bit-identical, forward and backward, to the chain of smaller ops it
  replaced, down to the order in which a multi-consumer cotangent is summed.
  Each raises ``NumericError`` on exactly the inputs where that chain raised:
  ``attention`` checks the stacked q/k/v, the scaled, biased scores and the
  heads before ``wo``, ``ffn`` its first affine map, ``add_layer_norm`` the
  sum, ``aligned_nll`` the denominator 2 s s, and ``_make`` every output.
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

import heapq
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


LOG_2PI = math.log(2.0 * math.pi)
_F64 = np.dtype(np.float64)
_all, _max, _sum = np.logical_and.reduce, np.maximum.reduce, np.add.reduce  # as .all/.max/.sum

_creation_order = itertools.count()  # next() is one C call, atomic across threads


class Tensor:
    """A numpy float64 array plus optional participation in the gradient tape.

    ``requires_grad`` is set on a trainable leaf, and by ``_make`` on exactly
    the outputs that record a VJP, so it alone says whether a gradient flows
    into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._seq = next(_creation_order)  # a node outranks every one it was built from

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

        Nodes are visited newest first: a heap keyed by creation number holds
        every node a cotangent has reached. A node is built after all of its
        parents, so each of its consumers is newer and has already been
        visited when it is popped: its cotangent is complete, with no sort of
        the graph. A node's cotangents are summed newest consumer first.
        Repeated calls without ``zero_grad`` accumulate. Raises ``ShapeError``
        if called on a non-scalar.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward() needs a scalar loss, got shape {self.data.shape}"
            )
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        pending = [(-self._seq, self)]  # seqs are unique, so no tie compares Tensors
        pop, push = heapq.heappop, heapq.heappush
        while pending:
            node = pop(pending)[1]
            g = grads.pop(id(node))
            if node._vjp is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
                    push(pending, (-parent._seq, parent))


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


def _make(data, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """The output node of an op: ``data`` as a float64 ndarray, recorded on the
    tape with ``parents`` and ``vjp`` when recording is on and a parent takes a
    gradient. Raises ``NumericError`` if any value is non-finite.

    This runs once per node, so it skips ``Tensor.__init__``: a float64 ndarray
    is kept as is and anything else (an ``np.float64`` scalar, another dtype)
    is converted as ``Tensor(data)`` would; the finite check is the ufunc
    reduction ``ndarray.all`` runs, without its Python wrapper.
    """
    if type(data) is not np.ndarray or data.dtype is not _F64:
        data = _as_array(data)
    if not _all(np.isfinite(data), axis=None):
        raise NumericError(f"{op} produced a non-finite value")
    out = object.__new__(Tensor)
    out.data, out.grad, out._seq = data, None, next(_creation_order)
    if _grad_mode.enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad, out._parents, out._vjp = True, parents, vjp
                return out
    out.requires_grad, out._parents, out._vjp = False, (), None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = _sum(g, axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = _sum(g, axis=ax, keepdims=True)
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
    data = np.minimum(np.maximum(a.data, lo), hi)
    return _make(data, (a,), lambda g: (g * ((a.data > lo) & (a.data < hi)),), "clamp")


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
    return _make(data, (x, w, b), lambda g: (g @ w.data.T, x.data.T @ g, _sum(g, axis=0)),
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

    def vjp(g):
        lead = (slice(None),) * (axis % g.ndim)
        grads, lo = [], 0
        for t in ts:
            hi = lo + t.shape[axis]
            grads.append(g[lead + (slice(lo, hi),)])
            lo = hi
        return grads

    return _make(data, tuple(ts), vjp, "concat")


def _getitem(a: Tensor, idx) -> Tensor:
    data = a.data[idx]
    if type(data) is not np.ndarray:  # a scalar index of every axis gives an np.float64
        data = np.asarray(data)
    shape = a.shape

    def vjp(g):
        buf = np.zeros(shape)
        buf[idx] += g  # basic indexing never aliases, so += is exact
        return (buf,)

    return _make(data.copy(), (a,), vjp, "getitem")


def _row_ids(ids, rows: int, op: str) -> np.ndarray:
    """``ids`` as int64 row numbers of a table with ``rows`` rows; raises
    ``IndexError`` if one is outside [0, rows). A negative id viewed as
    unsigned is at least 2**63, so one comparison of the unsigned maximum
    checks both ends."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and np.maximum.reduce(ids.view(np.uint64), axis=None) >= rows:
        raise IndexError(f"{op}: ids outside [0, {rows}): {ids.min()}..{ids.max()}")
    return ids


def _scatter_rows(g: np.ndarray, ids: np.ndarray, shape) -> np.ndarray:
    """Cotangent of a row gather: row k of ``g`` added into row ``ids[k]``, in order."""
    buf = np.zeros(shape)
    np.add.at(buf, ids, g)
    return buf


def take_rows(table, ids) -> Tensor:
    """Row gather (embedding lookup); gradient scatter-adds into the table."""
    table = ensure_tensor(table)
    if table.ndim != 2:
        raise ShapeError(f"take_rows expects a 2-D table, got {table.shape}")
    ids = _row_ids(ids, table.shape[0], "take_rows")
    data = table.data[ids]
    return _make(data, (table,), lambda g: (_scatter_rows(g, ids, table.shape),),
                 "take_rows")


# ---------------------------------------------------------------------------
# reductions and normalizations
# ---------------------------------------------------------------------------


def summation(a, axis=None) -> Tensor:
    a = ensure_tensor(a)
    data = np.add.reduce(a.data, axis=axis)  # what ndarray.sum runs, minus its wrapper
    shape = a.shape

    def vjp(g):
        out = np.empty(shape)
        out[...] = g if axis is None else np.expand_dims(g, axis)
        return (out,)

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


def aligned_nll(mu, sigma, u, logdet, frame_tokens) -> Tensor:
    """Negative log-density of frames under the Gaussian prior of the tokens
    they are aligned to, minus a flow log-determinant, per element, as one
    tape node. mu, sigma: (I, C) per-token means and scales; u: (C, J) frames;
    logdet: a scalar; frame_tokens: (J,) the token of each frame. With m, s the
    rows picked by frame_tokens and n = J * C:

        (sum_jc [log s + log(2 pi) / 2 + (u.T - m)**2 / (2 s s)] - logdet) / n

    The result and the four cotangents equal, byte for byte, the chain of
    transpose, take_rows, sub, log, add, mul, div and sum ops it replaced; the
    cotangent of a picked sigma row sums its terms as (from log + from the
    second factor of 2 s s) + from 2 s, the chain's order. It raises
    ``NumericError`` exactly where that chain raised: on a non-finite 2 s s
    (an overflow the later division by it would hide: q / inf = 0), and
    through ``_make`` on a non-finite result, which every other non-finite
    step of the chain reaches.
    """
    mu, sigma, u, logdet = (ensure_tensor(t) for t in (mu, sigma, u, logdet))
    if (mu.ndim != 2 or sigma.shape != mu.shape or u.ndim != 2 or u.shape[0] != mu.shape[1]
            or logdet.size != 1 or np.shape(frame_tokens) != u.shape[1:]):
        raise ShapeError(f"aligned_nll expects mu and sigma (I,C), u (C,J), a scalar logdet "
                         f"and (J,) frame tokens, got {mu.shape}, {sigma.shape}, {u.shape}, "
                         f"{logdet.shape}, {np.shape(frame_tokens)}")
    ids = _row_ids(frame_tokens, mu.shape[0], "aligned_nll")
    m, s = mu.data[ids], sigma.data[ids]  # (J, C)
    diff = np.subtract(u.data.T, m, out=np.empty(m.shape))  # C-ordered, as the sum needs
    two_s = 2.0 * s
    den = two_s * s
    if not _all(np.isfinite(den), axis=None):
        raise NumericError("aligned_nll produced a non-finite value")
    sq = diff * diff
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(s)
    terms += 0.5 * LOG_2PI
    terms += sq / den
    inv_n = 1.0 / diff.size
    data = (np.add.reduce(terms, axis=None) - logdet.data) * inv_n

    def vjp(g):
        gt = g * inv_n  # every element's cotangent
        g_sq = gt / den
        g_den = -gt * sq / (den * den)
        g_diff = g_sq * diff
        g_diff += g_diff  # from both factors of diff * diff
        g_s = gt / s
        g_s += g_den * two_s
        g_s += (g_den * s) * 2.0
        return (_scatter_rows(-g_diff, ids, mu.shape), _scatter_rows(g_s, ids, sigma.shape),
                g_diff.T, (-gt).reshape(logdet.shape))

    return _make(data, (mu, sigma, u, logdet), vjp, "aligned_nll")


def softmax(a, axis: int = -1) -> Tensor:
    a = ensure_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - inner),)

    return _make(data, (a,), vjp, "softmax")


def _layer_norm_node(s: np.ndarray, parents: tuple[Tensor, ...], axis: int, op: str) -> Tensor:
    """Layer norm of ``s`` as one node whose every parent receives the same
    gradient (each parent's shape is ``s.shape``). The means are
    ``np.add.reduce(...) / n``: what ``ndarray.mean`` computes, without its
    Python wrapper."""
    n = s.shape[axis]
    xc = s - np.add.reduce(s, axis=axis, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=axis, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + 1e-8)  # eps keeps a constant row finite
    data = xc * inv

    def vjp(g):
        g_mean = np.add.reduce(g, axis=axis, keepdims=True) / n
        gy_mean = np.add.reduce(g * data, axis=axis, keepdims=True) / n
        return (inv * (g - g_mean - data * gy_mean),) * len(parents)

    return _make(data, parents, vjp, op)


def layer_norm(a, axis: int = -1) -> Tensor:
    """Normalize to zero mean, unit variance along ``axis`` (no learned affine)."""
    a = ensure_tensor(a)
    return _layer_norm_node(a.data, (a,), axis, "layer_norm")


def add_layer_norm(a, b, axis: int = -1) -> Tensor:
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
    if not _all(np.isfinite(s), axis=None):
        raise NumericError("add_layer_norm produced a non-finite value")
    return _layer_norm_node(s, (a, b), axis, "add_layer_norm")


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
    if not _all(np.isfinite(scores), axis=None):
        raise NumericError("attention produced a non-finite score")
    scores -= _max(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= _sum(scores, axis=-1, keepdims=True)
    return scores


def attention(x, w, n_heads: int, scale: float, bias: np.ndarray | None = None,
              wo=None) -> Tensor:
    """Multi-head self-attention, with its output projection, as one tape node.

    x: (T, D); w: (3H, D, d), the wq, wk, wv of head h at rows h, H + h, 2H + h
    for H = ``n_heads``. The heads form (T, H*d), head h in columns h*d:(h+1)*d:
    softmax(x@wq @ (x@wk).T * scale + bias) @ x@wv. ``bias`` is a constant
    additive (T, T) score bias or None. With ``wo``, an (H*d, M) output
    projection, the op returns ``heads @ wo``; without, the heads.

    The forward is bit-identical to the per-head chain of matmul, transpose,
    mul, add, softmax, matmul and concat ops, then the matmul by ``wo``: each
    product runs the same 2-D BLAS call on operands of the same layout. The
    chain's transpose op made k.T contiguous, so this one does too. It raises
    ``NumericError`` exactly where that chain would: on a non-finite q, k or
    v, on a non-finite score before the softmax (in ``attention_probs``), on
    non-finite heads when ``wo`` follows them (IEEE products carry them into
    the output, but a BLAS may skip a zero entry of ``wo``), and, through
    ``_make``, on a non-finite output. Softmax of finite scores is finite, so
    nothing in between needs a check. The maps take one (H, T, T) buffer and
    the VJP two.
    """
    x, w = ensure_tensor(x), ensure_tensor(w)
    n = n_heads
    if x.ndim != 2 or w.ndim != 3 or n < 1 or w.shape[0] != 3 * n or w.shape[1] != x.shape[1]:
        raise ShapeError(f"attention: x {x.shape} needs (3H, D, d) weights for H = {n} heads "
                         f"with D = x.shape[1], got {w.shape}")
    length, d, wd = x.shape[0], w.shape[2], w.data
    if wo is not None:
        wo = ensure_tensor(wo)
        if wo.ndim != 2 or wo.shape[0] != n * d:
            raise ShapeError(f"attention: output projection {wo.shape} needs {n * d} rows")
    qkv = np.matmul(x.data, wd)  # (3H, T, d)
    if not _all(np.isfinite(qkv), axis=None):
        raise NumericError("attention produced a non-finite q, k or v")
    q, k, v = qkv[:n], qkv[n : 2 * n], qkv[2 * n :]
    att = attention_probs(q, k, scale, bias)  # (H, T, T)
    heads = np.matmul(att, v).transpose(1, 0, 2).reshape(length, n * d)
    data, parents = heads, (x, w)
    if wo is not None:
        if not _all(np.isfinite(heads), axis=None):
            raise NumericError("attention produced a non-finite value")
        data, parents = heads @ wo.data, (x, w, wo)

    def vjp(g):
        if wo is not None:  # the output projection's matmul VJP
            g_wo = heads.T @ g
            g = g @ wo.data.T
        gh = g.reshape(length, n, d).transpose(1, 0, 2)  # (H, T, d)
        g_att = np.matmul(gh, v.transpose(0, 2, 1))
        g_qkv = np.empty_like(qkv)
        np.matmul(att.transpose(0, 2, 1), gh, out=g_qkv[2 * n :])
        # the softmax VJP att * (g_att - sum(g_att * att)), formed in g_att
        g_att -= _sum(g_att * att, axis=-1, keepdims=True)
        g_att *= att
        g_att *= scale
        np.matmul(g_att, k, out=g_qkv[:n])
        np.matmul(g_att.transpose(0, 2, 1), q, out=g_qkv[n : 2 * n])
        # sum over the 3H projections of g_qkv[i] @ w[i].T, as one product
        g_x = g_qkv.transpose(1, 0, 2).reshape(length, -1) @ wd.transpose(1, 0, 2).reshape(
            wd.shape[1], -1).T
        g_w = np.matmul(x.data.T, g_qkv)
        return (g_x, g_w) if wo is None else (g_x, g_w, g_wo)

    return _make(data, parents, vjp, "attention")


def ffn(x, w1, b1, w2, b2) -> Tensor:
    """Position-wise feed-forward net ``relu(x @ w1 + b1) @ w2 + b2`` as one
    tape node; x: (N, D), w1: (D, F), b1: (F,), w2: (F, M), b2: (M,).

    The result and the five cotangents equal the linear, relu, linear chain
    byte for byte. It raises ``NumericError`` exactly where that chain did: on
    a non-finite first affine map (relu would turn a -inf into 0), and through
    ``_make`` on a non-finite output; relu of a finite value is finite.
    """
    x, w1, b1, w2, b2 = (ensure_tensor(t) for t in (x, w1, b1, w2, b2))
    if (x.ndim != 2 or w1.ndim != 2 or w2.ndim != 2 or x.shape[1] != w1.shape[0]
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]):
        raise ShapeError(f"ffn expects x (N,D), w1 (D,F), b1 (F,), w2 (F,M) and b2 (M,), got "
                         f"{x.shape}, {w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}")
    pre = x.data @ w1.data
    pre += b1.data
    if not _all(np.isfinite(pre), axis=None):
        raise NumericError("ffn produced a non-finite value")
    hid = np.maximum(pre, 0.0)
    data = hid @ w2.data
    data += b2.data

    def vjp(g):
        g_pre = (g @ w2.data.T) * (pre > 0.0)
        return (g_pre @ w1.data.T, x.data.T @ g_pre, _sum(g_pre, axis=0),
                hid.T @ g, _sum(g, axis=0))

    return _make(data, (x, w1, b1, w2, b2), vjp, "ffn")


def affine_coupling(xa, xb, s, out) -> Tensor:
    """The output ``concat([xa, xb * exp(s) + out[h:]])`` of an affine
    coupling layer as one tape node, h = ``xa.shape[0]``. xa, xb, s: (h, T),
    the passed half, the transformed half and its log-scale; out: (2h, T), the
    conv output whose second half is the shift.

    The result and the four cotangents equal the getitem, exp, mul, add and
    concat chain byte for byte; the cotangent of ``out`` is the zero buffer
    with the shift's cotangent added in, as the getitem VJP gave it. It raises
    ``NumericError`` exactly where that chain did: any non-finite step of the
    chain (exp, product, sum, or a non-finite input it copies) leaves a
    non-finite value in the output, which ``_make`` checks.
    """
    xa, xb, s, out = (ensure_tensor(t) for t in (xa, xb, s, out))
    if (xa.ndim != 2 or xb.shape != xa.shape or s.shape != xa.shape
            or out.shape != (2 * xa.shape[0], xa.shape[1])):
        raise ShapeError(f"affine_coupling expects xa, xb and s (h,T) and out (2h,T), got "
                         f"{xa.shape}, {xb.shape}, {s.shape}, {out.shape}")
    h = xa.shape[0]
    data = np.empty(out.shape)
    data[:h] = xa.data
    yb = data[h:]
    with np.errstate(over="ignore", invalid="ignore"):  # _make reports what these would
        scale = np.exp(s.data)
        np.multiply(xb.data, scale, out=yb)
        yb += out.data[h:]

    def vjp(g):
        gb = g[h:]
        g_out = np.zeros(out.shape)
        g_out[h:] += gb  # as the getitem VJP: a -0.0 becomes +0.0
        return g[:h], gb * scale, (gb * xb.data) * scale, g_out

    return _make(data, (xa, xb, s, out), vjp, "affine_coupling")


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
        if x.requires_grad:
            # col2im: tap i of column t came from x[:, t + i - pl]
            gcols = (w2.T @ g).reshape(cin, k, length)
            gx = np.zeros((cin, length))
            for i, lo, hi, off in taps:
                gx[:, lo + off : hi + off] += gcols[:, i, lo:hi]
        if w.requires_grad:
            gw = (g @ cols.T).reshape(cout, cin, k)
        return (gx, gw) if b is None else (gx, gw, _sum(g, axis=1))

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


def init_uniform(rng: Rng, shape, fan_in: int) -> Tensor:
    """Trainable parameter init: uniform in [-k, k], k = 1/sqrt(fan_in)."""
    k = 1.0 / math.sqrt(max(1, fan_in))
    return Tensor(rng.uniform(-k, k, shape), requires_grad=True)


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
    one) or a sub-module under its checkpoint name and return it unchanged;
    ``param`` given a dict {name: row} registers one stacked leaf, each row of
    its first axis a checkpoint entry. ``params`` lists the leaves and
    ``named_params`` the entries, in registration order, a child's under its
    prefix and a stacked leaf's rows as views of its current data; names and
    order are the checkpoint format (docs/checkpoint_format.md).
    """

    def param(self, name: str | dict[str, int], tensor: Tensor | None) -> Tensor | None:
        self.__dict__.setdefault("_members", []).append((name, tensor))
        return tensor

    def child(self, name: str, module: "Module") -> "Module":
        return self.param(name, module)

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = []
        for name, member in self.__dict__.get("_members", ()):
            if isinstance(member, Module):
                out += [(f"{name}.{n}", t) for n, t in member.named_params()]
            elif isinstance(name, dict):  # AdamW rebinds .data, so view it now
                out += [(n, Tensor(member.data[i])) for n, i in name.items()]
            elif member is not None:
                out.append((name, member))
        return out

    def params(self) -> list[Tensor]:
        members = [m for _, m in self.__dict__.get("_members", ()) if m is not None]
        return [p for m in members for p in (m.params() if isinstance(m, Module) else [m])]


# ---------------------------------------------------------------------------
# range rules and the optimizer
# ---------------------------------------------------------------------------

# A rule is (the test a value must pass, what the error asks for). Each class
# of settings keeps one table, field -> rule, and ``check`` reads them all.
FINITE = (math.isfinite, "finite")
POSITIVE = (lambda v: 0 < v < math.inf, "finite and > 0")
NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "finite and >= 0")
UNIT_INTERVAL = (lambda v: 0 <= v < 1, "in [0, 1)")


def at_least(n: int) -> tuple:
    """The rule of an integer setting whose least valid value is ``n``."""
    return (lambda v: v >= n), f">= {n}"


def check(rule: tuple, value, label: str):
    """Raise ``ValueError`` unless ``value`` passes ``rule``; the message names
    ``label``, the field or the CLI flag that stands for it."""
    ok, want = rule
    if not ok(value):
        raise ValueError(f"{label} must be {want}, got {value!r}")


def check_fields(obj, rules: dict):
    """``check`` each field of ``obj`` that ``rules`` names, in table order."""
    for name, rule in rules.items():
        check(rule, getattr(obj, name), name)


@dataclass(frozen=True)
class AdamWConfig:
    """Adam with decoupled weight decay; defaults follow the training recipe
    used throughout this project (lr decays by 0.999^(1/8) per epoch). These
    are the only copies of the defaults and of the valid ranges (``RULES``):
    ``AdamW`` and the run config read them. Building one with a value out of
    range raises ``ValueError``."""

    RULES = {"lr": POSITIVE, "beta1": UNIT_INTERVAL, "beta2": UNIT_INTERVAL,
             "weight_decay": NON_NEGATIVE, "eps": POSITIVE, "lr_decay": POSITIVE}

    lr: float = 2e-4
    beta1: float = 0.8
    beta2: float = 0.99
    weight_decay: float = 0.01
    eps: float = 1e-9
    lr_decay: float = 0.999 ** (1 / 8)

    def __post_init__(self):
        check_fields(self, self.RULES)


class AdamW:
    """AdamW (Loshchilov & Hutter, arXiv 1711.05101) over one flat buffer.

    The constructor copies its parameters into one contiguous float64 array
    and rebinds each ``p.data`` to a view of its slice, so a step is a fixed
    handful of in-place ufuncs over the whole buffer instead of a loop over
    parameters. From then on a parameter must be written in place
    (``p.data[...] = x``), never rebound; ``step`` raises if one was.

    ``AdamW(params, cfg)`` keeps ``cfg``, an ``AdamWConfig``, as ``self.cfg``, as in
    ``AdamW([p], AdamWConfig(lr=0.1))``; ``AdamW(params)`` uses the defaults.
    """

    def __init__(self, params, cfg: AdamWConfig = AdamWConfig()):
        self.cfg = cfg
        self.params = [p for p in params if p.requires_grad]
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("AdamW: a parameter is listed more than once")
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
        return self.cfg.lr * self.cfg.lr_decay**self.epoch

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
        c = self.cfg
        np.concatenate([q.grad for q in self.params[first:stop]], axis=None, out=g)
        np.multiply(p, lr * c.weight_decay, out=s1)
        p -= s1
        m *= c.beta1
        np.multiply(g, 1.0 - c.beta1, out=s1)
        m += s1
        v *= c.beta2
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - c.beta2
        v += s1
        np.divide(m, 1.0 - c.beta1**self.t, out=s1)
        s1 *= lr
        np.divide(v, 1.0 - c.beta2**self.t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += c.eps
        s1 /= s2
        p -= s1


# ---------------------------------------------------------------------------
# gradient oracle
# ---------------------------------------------------------------------------


def check_grad(f, x: Tensor) -> float:
    """Max relative error between tape gradients and central differences of
    step 1e-5.

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

    h = 1e-5
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
