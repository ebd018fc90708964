"""Dense float64 tensors with reverse-mode differentiation.

Everything above this module (alignment likelihoods, coupling flows, the
duration GAN, the text encoder) is built on the small op set here. Design
choices worth knowing:

- float64 only; finite-difference gradient checks need the precision.
- Tensors are tiny, so a step's time goes to Python and numpy call overhead
  per op, not to arithmetic: ``_make`` builds every node without
  ``Tensor.__init__``, and the hot paths call the ufunc reductions behind
  ``.all``/``.max``/``.sum`` without their Python wrappers.
- ``pack_params`` gives parameters one flat buffer: each ``p.data`` becomes
  a view of its slice. ``AdamW`` packs the parameters it is given into its
  own, and a built model packs its main parameters. Write a parameter in
  place (``p.data[...] = x``), never rebind it; ``AdamW.step`` raises if one
  was.
- Each forward op records its parents and a VJP closure on its output, and
  gradients accumulate only into leaves. Every tensor takes a number from
  one process-wide counter, so it outranks its parents, and ``backward``
  pops the newest interior node a cotangent has reached from a heap, as
  PyTorch's engine orders ready nodes; the graph is never sorted. A pending
  cotangent waits in its node's ``_g`` slot, or for a leaf in a dict of the
  call that sets each ``grad`` once, after the walk. A node's cotangents
  are summed newest consumer first: with at most two consumers that is a
  depth-first walk's sum bit for bit, with three or more it may associate
  differently (within 1e-12 relative on the speaker condition of four
  coupling layers).
- An op whose output holds a NaN or an inf raises ``NumericError`` at once:
  it scans its output, or, inside ``run_guarded``'s guard, numpy raises on
  the overflow, divide-by-zero or invalid flag that made it and the region
  reruns scanned, so the error and the bytes are the scanned run's. The
  guard engages only at one OpenBLAS thread and on finite leaves; the
  training steps and the alignment forward run in it.
  A VJP returns ``None``, skipping the work, only where training goes without
  a cotangent: coupling layer 0's frames, a duration tower's input, a frozen
  critic's weights. Any other it computes; the walk drops one nobody takes.
- ``no_grad`` turns recording off for the calling thread: ops still check
  their outputs, but keep no parents and no VJP, so an inference forward
  retains nothing once a layer is done with it.

A step's time is per node, so layers are fused ops, one tape node each,
bit-identical forward and backward to the chains of smaller ops they
replaced and raising ``NumericError`` where those chains raised:

- ``conv1d``: a same-padded conv with its bias, as im2col + one BLAS matmul
  (within 1e-12 of a per-tap contraction, not bit for bit).
- ``linear``: ``x @ w + b``, the encoder's mean head.
- ``encoder_block``: a whole post-norm transformer block.
- ``scale_head``: the encoder's sigma head ``exp(clamp(x @ w + b, -6, 6))``.
- ``coupling_conditioner``: a coupling layer's rows ``[s, t, xa]``.
- ``affine_coupling``: a coupling layer's output ``[xa, xb * exp(s) + t]``.
- ``sum_rows``: the sum of the first rows, a coupling layer's log-det.
- ``conv_tower``: a duration tower's (I,) scores.
- ``aligned_nll``: the training loss.

The duration losses are built on ``_make`` in ``duration.py``. The fused ops
share array cores that return (output, back): ``_attend``, the one home of
the attention math (its output projection included), ``_feed_forward``,
``_normalize`` (``layer_norm`` and ``encoder_block``'s post-norm residuals
``layer_norm(a + b)``), ``_conv`` and ``_conv_net``, whose back runs its two
``_conv`` backs; no back takes more than two flags (input, weights), and
``_check_finite`` is their check. ``_elementwise`` is add, sub, mul and div,
``_affine`` the front end of ``linear`` and ``scale_head``, ``_into_zeros``
every getitem-style cotangent, and ``_setting`` sets the per-thread
``no_grad``, ``param_budget`` and guard. ``_ignoring`` is the ``np.errstate``
of an op that silences the flags its own check reports, and lets a guard's
raise through.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
import math
import threading
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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_seq", "_g")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._g = None  # the pending cotangent during a backward walk
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

        Interior nodes are visited newest first: a heap keyed by creation
        number holds every one a cotangent has reached, and each keeps its
        pending cotangent in its ``_g`` slot. A node is built after all of its
        parents, so each of its consumers is newer and has already been
        visited when it is popped: its cotangent is complete, with no sort of
        the graph. Leaves never enter the heap: their cotangents are summed in
        a dict local to this call, and each leaf's ``grad`` is set once, after
        the walk, so threads that share a leaf never mix their pending sums
        (concurrent walks may share leaves, not interior nodes). Every
        cotangent is summed newest consumer first. If a VJP raises, the
        ``_g`` slots still set are cleared and no leaf's ``grad`` changes.
        Repeated calls without ``zero_grad`` accumulate. Raises ``ShapeError``
        if called on a non-scalar.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward() needs a scalar loss, got shape {self.data.shape}"
            )
        leaves: dict[Tensor, np.ndarray] = {}  # hashed by identity, in first-reached order
        pending = []  # (-seq, node); seqs are unique, so no tie compares Tensors
        if self._vjp is not None:
            self._g = np.ones_like(self.data)
            pending.append((-self._seq, self))
        elif self.requires_grad:
            leaves[self] = np.ones_like(self.data)
        pop, push = heapq.heappop, heapq.heappush
        try:
            while pending:
                node = pop(pending)[1]
                g, node._g = node._g, None
                for parent, pg in zip(node._parents, node._vjp(g)):
                    if pg is None or not parent.requires_grad:
                        continue
                    if parent._vjp is None:
                        if parent in leaves:
                            leaves[parent] = leaves[parent] + pg
                        else:
                            leaves[parent] = pg
                    elif parent._g is None:
                        parent._g = pg
                        push(pending, (-parent._seq, parent))
                    else:
                        parent._g = parent._g + pg
        finally:
            for _, node in pending:  # only when a VJP raised
                node._g = None
        for leaf, g in leaves.items():
            leaf.grad = g if leaf.grad is None else leaf.grad + g


def ensure_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Settings(threading.local):
    """Per-thread settings; every thread starts recording, with no budget and
    no guard."""

    grad_enabled = True
    budget = None  # (limit, values left) of ``param_budget``; None is no limit
    guarded = False  # inside ``run_guarded``'s guard: flags stand in for the finite scans


_settings = _Settings()


class _setting:
    """Set one per-thread setting for the block; restore it, also if it raises.
    A class, not a generator: entering and leaving costs half as much, and a
    guarded step and each inference call pass through it."""

    __slots__ = ("name", "value", "saved")

    def __init__(self, name: str, value):
        self.name, self.value = name, value

    def __enter__(self):
        self.saved = getattr(_settings, self.name)
        setattr(_settings, self.name, self.value)

    def __exit__(self, *exc):
        setattr(_settings, self.name, self.saved)


def no_grad():
    """Record no tape in this thread: ops still check their outputs for
    non-finite values, but return tensors with no parents and no VJP."""
    return _setting("grad_enabled", False)


def param_budget(limit: int):
    """Let ``init_uniform`` and ``zeros`` make at most ``limit`` values in all
    in the calling thread; the one that would pass it raises ``ValueError``
    before it allocates. A model whose parameters cannot fit ``limit`` values
    is then refused at the cost of what it drew so far."""
    return _setting("budget", (limit, limit))


_FLAGS_RAISE = {"over": "raise", "divide": "raise", "invalid": "raise"}
_AS_IS = contextlib.nullcontext()


def _ignoring(**flags):
    """``np.errstate(**flags)`` outside a guard; inside one, no change, so the
    guard's raise on these flags gets through."""
    return _AS_IS if _settings.guarded else np.errstate(**flags)


@functools.lru_cache(maxsize=1)
def _openblas():
    """The (thread-count getter, setter) of the OpenBLAS numpy loaded from its
    wheel's library folder, or None if there is none to reach (another BLAS, a
    system OpenBLAS, no ``RTLD_NOLOAD``): ``run_guarded`` then never guards."""
    import ctypes
    import glob
    import os

    mode = getattr(os, "RTLD_NOLOAD", None)
    root = os.path.dirname(np.__file__)
    paths = [p for folder in (os.path.join(root, os.pardir, "numpy.libs"),
                              os.path.join(root, ".dylibs"))
             for p in sorted(glob.glob(os.path.join(folder, "*openblas*")))]
    for path in paths if mode is not None else ():
        try:
            lib = ctypes.CDLL(path, mode=mode)  # only a copy numpy has loaded
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            getter = getattr(lib, name.format("get"), None)
            if getter is not None:
                setter = getattr(lib, name.format("set"))
                getter.restype, getter.argtypes = ctypes.c_int, []
                setter.restype, setter.argtypes = None, [ctypes.c_int]
                return getter, setter
    return None


def blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS reports now, or None if it cannot be read."""
    blas = _openblas()
    return None if blas is None else blas[0]()


def _leaves_finite(params, arrays) -> bool:
    """Whether every value ``params`` and ``arrays`` hold is known finite by
    one scan of each distinct buffer the parameters view (``pack_params``
    leaves them viewing one) and one of each array; None in ``arrays`` is
    skipped. False, without a scan, if a parameter owns its data or
    ``params`` is None (leaves not known)."""
    if params is None:
        return False
    bufs = []
    for p in params:
        base = p.data.base
        if not bufs or base is not bufs[-1]:
            if type(base) is not np.ndarray or base.dtype is not _F64:
                return False
            if not any(b is base for b in bufs):
                bufs.append(base)
    for a in (*bufs, *arrays):
        if a is not None and not _all(np.isfinite(a), axis=None):
            return False
    return True


def guard_ready(params=(), arrays=()) -> bool:
    """Whether ``run_guarded`` guards a region whose leaves are the tensors in
    ``params`` and the arrays in ``arrays``: numpy's OpenBLAS reports one
    thread, and one scan finds every leaf finite (``_leaves_finite``)."""
    return blas_threads() == 1 and _leaves_finite(params, arrays)


def run_guarded(region, params=(), arrays=()):
    """``region()``, with non-finite values caught by floating-point flags
    instead of array scans where that is exact; returns what it returns.

    The guard holds ``np.errstate`` at raise for overflow, divide-by-zero and
    invalid, and sets the calling thread's ``guarded`` setting, under which
    ``_make``, ``_check_finite`` and ``_normalize`` skip their scans. From
    finite values, IEEE arithmetic reaches an inf or a NaN only by setting
    one of those flags, and numpy raises ``FloatingPointError`` on it after
    the ufunc or BLAS call that set it. So the guard is entered only when
    both hold: numpy's OpenBLAS reports one thread (a flag set in another
    BLAS thread is lost), and every leaf the region reads, the tensors in
    ``params`` and the arrays in ``arrays``, is finite (``guard_ready``).
    ``params`` None says the leaves are not known; ``()`` with no arrays says
    a ``guard_ready`` call found them finite and nothing wrote them since.
    On a ``FloatingPointError`` the region runs again without the guard, so
    its ``NumericError``, its output bytes and its warnings are those of the
    scanned run; otherwise the result is that run's bit for bit, since flags
    change no arithmetic. Inside a guard, ``region()`` just runs in it.

    ``region`` must be safe to run twice: no RNG draw, no state change a
    second run would see, and a backward only into leaves with no ``grad``.
    """
    if _settings.guarded:
        return region()
    if guard_ready(params, arrays):
        try:
            with _setting("guarded", True), np.errstate(**_FLAGS_RAISE):
                return region()
        except FloatingPointError:
            pass  # run it scanned: the same error, output and warnings as without the guard
    return region()


def _make(data, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """The output node of an op: ``data`` as a float64 ndarray, recorded on the
    tape with ``parents`` and ``vjp`` when recording is on and a parent takes a
    gradient. Raises ``NumericError`` if any value is non-finite (inside a
    guard the flags raise instead, see ``run_guarded``).

    This runs once per node, so it skips ``Tensor.__init__``: a float64 ndarray
    is kept as is and anything else (an ``np.float64`` scalar, another dtype)
    is converted as ``Tensor(data)`` would; the finite check is the ufunc
    reduction ``ndarray.all`` runs, without its Python wrapper.
    """
    if type(data) is not np.ndarray or data.dtype is not _F64:
        data = _as_array(data)
    if not _settings.guarded and not _all(np.isfinite(data), axis=None):
        raise NumericError(f"{op} produced a non-finite value")
    out = object.__new__(Tensor)
    out.data, out.grad, out._g, out._seq = data, None, None, next(_creation_order)
    if _settings.grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad, out._parents, out._vjp = True, parents, vjp
                return out
    out.requires_grad, out._parents, out._vjp = False, (), None
    return out


def _check_finite(a: np.ndarray, op: str, what: str = "value"):
    """Raise ``NumericError`` ("{op} produced a non-finite {what}") unless
    every value of ``a`` is finite; inside a guard the flags check instead."""
    if not _settings.guarded and not _all(np.isfinite(a), axis=None):
        raise NumericError(f"{op} produced a non-finite {what}")


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


def _elementwise(op: str, a, b, ufunc, local) -> Tensor:
    """``ufunc(a, b)``, broadcast, as one tape node named ``op``; ``local(g, a,
    b)`` gives the two cotangents on the arrays, each summed back to its
    operand's shape. Raises ``ShapeError`` if the shapes do not broadcast."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    try:
        data = ufunc(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")

    def vjp(g):
        ga, gb = local(g, a.data, b.data)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make(data, (a, b), vjp, op)


def add(a, b) -> Tensor:
    return _elementwise("add", a, b, np.add, lambda g, x, y: (g, g))


def sub(a, b) -> Tensor:
    return _elementwise("sub", a, b, np.subtract, lambda g, x, y: (g, -g))


def mul(a, b) -> Tensor:
    return _elementwise("mul", a, b, np.multiply, lambda g, x, y: (g * y, g * x))


def div(a, b) -> Tensor:
    return _elementwise("div", a, b, np.divide, lambda g, x, y: (g / y, -g * x / (y * y)))


def neg(a) -> Tensor:
    a = ensure_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,), "neg")


def power(a, p: float) -> Tensor:
    a = ensure_tensor(a)
    p = float(p)
    with _ignoring(over="ignore"):
        data = a.data**p
    return _make(data, (a,), lambda g: (g * p * a.data ** (p - 1),), "pow")


def exp(a) -> Tensor:
    a = ensure_tensor(a)
    with _ignoring(over="ignore"):
        data = np.exp(a.data)
    return _make(data, (a,), lambda g: (g * data,), "exp")


def log(a) -> Tensor:
    a = ensure_tensor(a)
    with _ignoring(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    return _make(data, (a,), lambda g: (g / a.data,), "log")


def tanh(a) -> Tensor:
    a = ensure_tensor(a)
    data = np.tanh(a.data)
    return _make(data, (a,), lambda g: (g * (1.0 - data * data),), "tanh")


def sigmoid(a) -> Tensor:
    a = ensure_tensor(a)
    with _ignoring(over="ignore"):
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


def _affine(x, w, b, op: str):
    """(x, w, b, ``x @ w + b``) for ``linear`` and ``scale_head``: the three as
    tensors checked as (N, D), (D, M) and (M,), the map on their arrays."""
    x, w, b = ensure_tensor(x), ensure_tensor(w), ensure_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"{op} expects x (N,D), w (D,M) and b (M,), got "
                         f"{x.shape}, {w.shape}, {b.shape}")
    out = x.data @ w.data
    out += b.data
    return x, w, b, out


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w + b`` as one tape node; x: (N, D), w: (D, M), b: (M,).

    The result equals the matmul-then-add chain byte for byte.
    """
    x, w, b, data = _affine(x, w, b, "linear")
    return _make(data, (x, w, b), lambda g: (g @ w.data.T, x.data.T @ g, _sum(g, axis=0)),
                 "linear")


def scale_head(x, w, b) -> Tensor:
    """A positive scale ``exp(clamp(x @ w + b, -6, 6))`` as one tape node: the
    encoder's sigma head, whose clamp keeps the scale in [e**-6, e**6]; x: (N,
    D), w: (D, M), b: (M,).

    The result and the three cotangents equal the linear, clamp and exp chain
    byte for byte; the VJP computes all three. It raises ``NumericError``
    exactly where that chain did: on a non-finite affine map (the clamp would
    turn an inf into a bound); the exp of a clamped value is finite.
    """
    x, w, b, pre = _affine(x, w, b, "scale_head")
    _check_finite(pre, "scale_head")
    data = np.exp(np.minimum(np.maximum(pre, -6.0), 6.0))

    def vjp(g):
        g_pre = (g * data) * ((pre > -6.0) & (pre < 6.0))  # the exp, then the clamp VJP
        return g_pre @ w.data.T, x.data.T @ g_pre, _sum(g_pre, axis=0)

    return _make(data, (x, w, b), vjp, "scale_head")


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


def _into_zeros(shape, idx, g: np.ndarray) -> np.ndarray:
    """A getitem's cotangent: zeros of ``shape`` with ``g`` added into ``[idx]``
    (exact: basic indexing never aliases), so a -0.0 in ``g`` becomes +0.0."""
    buf = np.zeros(shape)
    buf[idx] += g
    return buf


def _getitem(a: Tensor, idx) -> Tensor:
    data = a.data[idx]
    if type(data) is not np.ndarray:  # a scalar index of every axis gives an np.float64
        data = np.asarray(data)
    shape = a.shape
    return _make(data.copy(), (a,), lambda g: (_into_zeros(shape, idx, g),), "getitem")


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


def sum_rows(a, n: int) -> Tensor:
    """``summation(a[:n])``, the sum of the first ``n`` rows, as one tape node
    (a coupling layer's log-determinant, from its conditioner's rows). The
    result and cotangent equal that getitem-then-sum chain byte for byte: the
    rows are summed as one C-ordered block, as the getitem's copy was, and
    the cotangent is a zero buffer with ``g`` added into those rows."""
    a = ensure_tensor(a)
    shape = a.shape
    return _make(np.asarray(_sum(np.ascontiguousarray(a.data[:n]), axis=None)), (a,),
                 lambda g: (_into_zeros(shape, slice(None, n), g),), "sum_rows")


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
    _check_finite(den, "aligned_nll")
    sq = diff * diff
    with _ignoring(divide="ignore", invalid="ignore"):
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


def _normalize(s: np.ndarray, axis: int, op: str):
    """Layer norm of ``s`` along ``axis``: (output, back), where ``back(g)`` is
    the cotangent of ``s``. The means are ``np.add.reduce(...) / n``: what
    ``ndarray.mean`` computes, without its Python wrapper. Raises ``NumericError``,
    naming ``op``, on an infinite variance (centred values past about 1.3e154)
    in a finite output, which its zero scale would make all zeros; inside a
    guard, the overflow that made it raises."""
    n = s.shape[axis]
    xc = s - np.add.reduce(s, axis=axis, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=axis, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + 1e-8)  # eps keeps a constant row finite
    data = xc * inv
    if (not _settings.guarded and np.count_nonzero(inv) < inv.size
            and _all(np.isfinite(data), axis=None)):  # only var = inf gives 0; a guard raised on it
        raise NumericError(f"{op} produced a non-finite variance")

    def back(g):
        g_mean = np.add.reduce(g, axis=axis, keepdims=True) / n
        gy_mean = np.add.reduce(g * data, axis=axis, keepdims=True) / n
        return inv * (g - g_mean - data * gy_mean)

    return data, back


def layer_norm(a, axis: int = -1) -> Tensor:
    """Normalize to zero mean, unit variance along ``axis`` (no learned affine)."""
    a = ensure_tensor(a)
    data, back = _normalize(a.data, axis, "layer_norm")
    return _make(data, (a,), lambda g: (back(g),), "layer_norm")


def attention_probs(q: np.ndarray, k: np.ndarray, scale: float,
                    bias: np.ndarray | None = None, op: str = "attention") -> np.ndarray:
    """Attention maps softmax(q @ k.T * scale + bias) of every head, as numpy.

    q, k: (H, T, d); ``bias`` is a constant additive (T, T) score bias or
    None. Returns the (H, T, T) row-stochastic maps in one buffer: the scores
    are shifted, exponentiated and normalised in place. This is the forward
    of ``_attend`` up to the weighted sum of v, so a map read through here
    is the map the fused ops use, byte for byte. Raises ``NumericError``, naming
    ``op``, on a non-finite score (the softmax would zero a -inf entry
    without a trace).
    """
    scores = np.matmul(q, np.ascontiguousarray(k.transpose(0, 2, 1)))
    scores *= scale
    if bias is not None:
        try:
            scores += bias
        except ValueError:
            raise ShapeError(f"{op}: bias {np.shape(bias)} does not fit scores "
                             f"{scores.shape[1:]}")
    _check_finite(scores, op, "score")
    scores -= _max(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= _sum(scores, axis=-1, keepdims=True)
    return scores


def _attend(x: np.ndarray, wd: np.ndarray, n: int, scale: float, bias, wo: np.ndarray,
            op: str):
    """Multi-head self-attention with its output projection, on arrays:
    (output, back), where ``back(g, want_x)`` gives the cotangents of x (None,
    and not computed, unless ``want_x``), the stacked weights and ``wo``.

    x: (T, D); wd: (3H, D, d), the wq, wk, wv of head h at rows h, H + h, 2H + h
    for H = ``n``; wo: (H*d, M). Head h is softmax(x@wq @ (x@wk).T * scale +
    bias) @ x@wv, ``bias`` a constant additive (T, T) score bias or None; the
    heads form (T, H*d), head h in columns h*d:(h+1)*d, and the output is
    ``heads @ wo``.

    The output equals, byte for byte, the per-head chain of matmul, transpose,
    mul, add, softmax and matmul ops, their concat and a matmul by ``wo``: each
    product runs the same 2-D BLAS call on operands of the same layout (the
    chain's transpose made k.T contiguous, so this does too). The cotangents
    are within 1e-12 of that chain's. It raises ``NumericError``, naming
    ``op``, where that chain raises, bar the output check its caller makes: on
    a non-finite q, k or v, on a non-finite score before the softmax (in
    ``attention_probs``) and on non-finite heads (IEEE products carry them
    into the output, but a BLAS may skip a zero entry of ``wo``). Softmax of
    finite scores is finite, so nothing in between needs a check. The maps
    take one (H, T, T) buffer and the back two."""
    length, d = x.shape[0], wd.shape[2]
    qkv = np.matmul(x, wd)  # (3H, T, d)
    _check_finite(qkv, op, "q, k or v")
    q, k, v = qkv[:n], qkv[n : 2 * n], qkv[2 * n :]
    att = attention_probs(q, k, scale, bias, op)  # (H, T, T)
    heads = np.matmul(att, v).transpose(1, 0, 2).reshape(length, n * d)
    _check_finite(heads, op)

    def back(g, want_x=True):
        g_wo = heads.T @ g  # the output projection's matmul VJP
        g = g @ wo.T
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
        g_x = None
        if want_x:  # sum over the 3H projections of g_qkv[i] @ w[i].T, as one product
            g_x = g_qkv.transpose(1, 0, 2).reshape(length, -1) @ wd.transpose(1, 0, 2).reshape(
                wd.shape[1], -1).T
        return g_x, np.matmul(x.T, g_qkv), g_wo

    return heads @ wo, back


def _feed_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                  b2: np.ndarray, op: str):
    """The position-wise net ``relu(x @ w1 + b1) @ w2 + b2`` on arrays:
    (output, back), where ``back(g)`` gives the cotangents of x, w1, b1, w2
    and b2. Raises ``NumericError``, naming ``op``, on a non-finite first
    affine map (relu would turn a -inf into 0)."""
    pre = x @ w1
    pre += b1
    _check_finite(pre, op)
    hid = np.maximum(pre, 0.0)
    data = hid @ w2
    data += b2

    def back(g):
        g_pre = (g @ w2.T) * (pre > 0.0)
        return g_pre @ w1.T, x.T @ g_pre, _sum(g_pre, axis=0), hid.T @ g, _sum(g, axis=0)

    return data, back


def encoder_block(x, w, wo, w1, b1, w2, b2, n_heads: int, scale: float,
                  bias: np.ndarray | None = None) -> Tensor:
    """A post-norm transformer block as one tape node: with ``a = _attend(x, w,
    n_heads, scale, bias, wo)``, the attention and its output projection, and
    ``x1 = layer_norm(x + a, axis=1)``, the output ``layer_norm(x1 +
    linear(relu(linear(x1, w1, b1)), w2, b2), axis=1)``.
    x: (T, D); w: (3H, D, d); wo: (H*d, D); w1: (D, F), b1: (F,), w2: (F, D),
    b2: (D,).

    The result and the seven cotangents equal, byte for byte, that chain of
    tape ops with the attention as one node over ``_attend`` (whose output is
    its per-head matmul, softmax and concat chain's, byte for byte): x1's
    cotangent is the second norm's plus the net's, and x's the first norm's
    plus the attention's, as the walk summed them. The VJP computes all
    seven. It raises ``NumericError``, naming itself, exactly where the chain
    raised: on a non-finite q, k or v, score or heads (in ``_attend``), first
    affine map of the net (relu would turn a -inf into 0) or either norm's
    variance, and through ``_make`` on a non-finite output. That last check
    covers the chain's others: the layer norm of a sum with a non-finite
    value has a NaN in its row, a non-finite attention output or x makes the
    first sum non-finite, a non-finite net output the second, and x1 reaches
    the output through the second sum, elementwise.
    """
    parents = x, w, wo, w1, b1, w2, b2 = tuple(map(ensure_tensor, (x, w, wo, w1, b1, w2, b2)))
    xd, wd, w1d, w2d = x.data, w.data, w1.data, w2.data
    n, width = n_heads, xd.shape[-1] if xd.ndim else 0
    d, ff = wd.shape[-1] if wd.ndim else 0, w1d.shape[-1] if w1d.ndim else 0
    if (xd.ndim != 2 or n < 1 or wd.shape != (3 * n, width, d)
            or wo.data.shape != (n * d, width) or w1d.shape != (width, ff)
            or b1.data.shape != (ff,) or w2d.shape != (ff, width) or b2.data.shape != (width,)):
        shapes = ", ".join(str(t.shape) for t in parents)
        raise ShapeError(f"encoder_block expects x (T,D), w (3H,D,d), wo (H*d,D), w1 (D,F), "
                         f"b1 (F,), w2 (F,D) and b2 (D,) for H = {n} heads, got {shapes}")
    op = "encoder_block"
    a, attention_back = _attend(xd, wd, n, scale, bias, wo.data, op)
    x1, norm1_back = _normalize(xd + a, 1, op)
    f, ffn_back = _feed_forward(x1, w1d, b1.data, w2d, b2.data, op)
    data, norm2_back = _normalize(x1 + f, 1, op)

    def vjp(g):
        g_s2 = norm2_back(g)
        g_x1, g_w1, g_b1, g_w2, g_b2 = ffn_back(g_s2)
        g_s1 = norm1_back(g_s2 + g_x1)
        g_xa, g_w, g_wo = attention_back(g_s1)
        return g_s1 + g_xa, g_w, g_wo, g_w1, g_b1, g_w2, g_b2

    return _make(data, parents, vjp, op)


def affine_coupling(x, c) -> Tensor:
    """The output ``[xa, xb * exp(s) + t]`` of an affine coupling layer as one
    tape node. x: (2h, T), whose second half xb is transformed; c: (3h, T), the
    output of ``coupling_conditioner``: the log-scale s, the shift t and the
    passed half xa, in that order. Only ``x[h:]`` is read; the passed half
    comes from c, so its cotangent goes back through the conditioner.

    The result and the two cotangents equal the chain ``concat([c[2h:],
    x[h:] * exp(c[:h]) + c[h:2h]])`` byte for byte; each cotangent is a zero
    buffer with the slices' cotangents added in, as the getitem VJPs gave
    them. The VJP returns ``None`` for x, skipping its work, when x takes no
    gradient (the frames of the first layer). It raises ``NumericError``
    exactly where that chain did: on a non-finite s (exp would turn a -inf
    into 0), and through ``_make`` on a non-finite output, which any other
    non-finite step (exp, product, sum, or an input it copies) leaves there.
    """
    x, c = ensure_tensor(x), ensure_tensor(c)
    xs = x.data.shape
    h = xs[0] // 2 if len(xs) == 2 else 0
    if len(xs) != 2 or xs[0] != 2 * h or c.data.shape != (3 * h, xs[1]):
        raise ShapeError(f"affine_coupling expects x (2h,T) and c (3h,T), got {xs}, "
                         f"{c.shape}")
    s, xb = c.data[:h], x.data[h:]
    _check_finite(s, "affine_coupling")
    data = np.empty(xs)
    data[:h] = c.data[2 * h :]
    yb = data[h:]
    with _ignoring(over="ignore", invalid="ignore"):  # _make reports what these would
        scale = np.exp(s)
        np.multiply(xb, scale, out=yb)
        yb += c.data[h : 2 * h]

    def vjp(g):
        gb = g[h:]
        g_c = np.empty(c.data.shape)
        np.multiply(gb, xb, out=g_c[:h])
        g_c[:h] *= scale
        g_c[h : 2 * h] = gb
        g_c[2 * h :] = g[:h]
        g_c += 0.0  # as the getitem VJPs: a -0.0 becomes +0.0
        return _into_zeros(xs, slice(h, None), gb * scale) if x.requires_grad else None, g_c

    return _make(data, (x, c), vjp, "affine_coupling")


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)  # one immutable entry per (kernel, length)
def _taps(k: int, length: int) -> tuple[tuple[int, int, int, int], ...]:
    """The (i, lo, hi, off) of each tap of a width-``k`` same-padded conv over
    ``length`` steps that reads inside [0, L): tap i of output t reads input
    t + off, off = i - (k-1)//2, for t in [lo, hi)."""
    pl = (k - 1) // 2
    out = []
    for i in range(k):
        off = i - pl
        lo, hi = max(0, -off), min(length, length - off)
        if lo < hi:
            out.append((i, lo, hi, off))
    return tuple(out)


def _im2col(x: np.ndarray, k: int, taps) -> np.ndarray:
    """The (C*K, L) column matrix of x (C, L): row c*K + i, column t holds
    x[c, t + i - (K-1)//2], zero where that falls outside [0, L)."""
    cin, length = x.shape
    windows = np.zeros((cin, k, length))
    for i, lo, hi, off in taps:
        windows[:, i, lo:hi] = x[:, lo + off : hi + off]
    return windows.reshape(cin * k, length)


def _col2im(gcols: np.ndarray, cin: int, k: int, taps) -> np.ndarray:
    """The input cotangent (C, L) from the column cotangent (C*K, L): each tap
    added back into a zero buffer, in ascending tap order."""
    length = gcols.shape[1]
    gcols = gcols.reshape(cin, k, length)
    gx = np.zeros((cin, length))
    for i, lo, hi, off in taps:
        gx[:, lo + off : hi + off] += gcols[:, i, lo:hi]
    return gx


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray | None):
    """The forward of ``conv1d`` on arrays, im2col + one matmul, plus the bias
    ``b`` unless it is None: (output, back), where ``back(g, want_x, want_w)``
    gives the cotangents of x (None, and not computed, unless ``want_x``) and
    of w and b (both None unless ``want_w``)."""
    cout, cin, k = w.shape
    taps = _taps(k, x.shape[1])
    cols, wm = _im2col(x, k, taps), w.reshape(cout, cin * k)
    out = wm @ cols
    if b is not None:
        out += b[:, None]

    def back(g, want_x=True, want_w=True):
        return (_col2im(wm.T @ g, cin, k, taps) if want_x else None,
                (g @ cols.T).reshape(w.shape) if want_w else None,
                _sum(g, axis=1) if want_w else None)

    return out, back


def _conv_net(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray,
              wc: np.ndarray | None, cond: np.ndarray | None, op: str):
    """``conv(relu(conv(x, w1, b1) + wc @ cond), w2, b2)`` on arrays, the
    condition term (added to every step) only with ``wc``: (output, back),
    where ``back(g, want_x, want_w)`` gives the cotangents of x (None, and not
    computed, unless ``want_x``) and of w1, b1, w2, b2, wc and cond (None
    unless ``want_w``; wc's and cond's None without ``wc``). Raises
    ``NumericError``, naming ``op``, on a non-finite first conv output,
    condition, condition sum or output; relu of a finite value is finite."""
    pre, back1 = _conv(x, w1, b1)
    _check_finite(pre, op)
    if wc is not None:
        _check_finite(cond, op)
        cond_col = cond.reshape(-1, 1)
        pre += wc @ cond_col
        _check_finite(pre, op)
    out, back2 = _conv(np.maximum(pre, 0.0), w2, b2)
    _check_finite(out, op)

    def back(g, want_x, want_w):
        g_hid, g_w2, g_b2 = back2(g, True, want_w)
        g_pre = g_hid * (pre > 0.0)
        g_x, g_w1, g_b1 = back1(g_pre, want_x, want_w)
        g_wc = g_cond = None
        if wc is not None and want_w:
            g_cm = _unbroadcast(g_pre, (pre.shape[0], 1))  # the add's VJP: the row sum
            g_wc, g_cond = g_cm @ cond_col.T, (wc.T @ g_cm).reshape(cond.shape)
        return g_x, g_w1, g_b1, g_w2, g_b2, g_wc, g_cond

    return out, back


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
    if x.shape[0] != w.shape[1]:
        raise ShapeError(f"conv1d: x has {x.shape[0]} channels but kernel expects {w.shape[1]}")
    parents = (x, w)
    if b is not None:
        b = ensure_tensor(b)
        if b.shape != w.shape[:1]:
            raise ShapeError(f"conv1d: bias {b.shape} does not match {w.shape[0]} output "
                             f"channels")
        parents = (x, w, b)
    data, back = _conv(x.data, w.data, None if b is None else b.data)
    return _make(data, parents, lambda g: back(g)[:len(parents)], "conv1d")


def conv_tower(feats, extra, w1, b1, w2, b2, wh, bh, wc=None, cond=None) -> Tensor:
    """A duration tower, conv(k) -> relu -> conv(k) -> relu -> 1x1 head, over
    the token axis as one tape node; returns the (I,) scores.

    feats: (I, H) features; extra: None, the noise (I, Z) or the durations
    (I,), stacked after the features as the input channels; w1: (F, C, K)
    with C the input channels, b1: (F,); w2: (G, F, K2), b2: (G,); wh: (1, G,
    1), bh: (1,). With ``wc`` (F, D) and ``cond`` (D values), the condition
    term ``wc @ cond`` is added to every step of the first conv's output
    before its relu. The im2col columns are built from ``feats`` and
    ``extra`` directly, with no input assembly on the tape.

    The result and every cotangent equal, byte for byte, the chain it
    replaced: concat, transpose (and reshape of the durations), ``conv1d``
    with its bias, ``pre + reshape(wc @ reshape(cond, (-1, 1)), (-1, 1))``,
    relu, ``conv1d``, relu, ``conv1d`` by the head and ``[0]``. That includes
    the relu masks at exactly 0, the ``+0.0`` start of the getitem and col2im
    zero buffers, and the condition's cotangent, the row sum of the first
    conv's cotangent. The VJP skips the input's cotangents when neither
    ``feats`` nor ``extra`` takes one, and the other parents' when none of
    them does (a frozen critic). It raises ``NumericError`` exactly where that
    chain raised: on a non-finite input, first conv output, condition (the
    chain's reshape of it) or condition sum (which a non-finite product makes
    non-finite), or second conv output, and through ``_make`` on a non-finite
    score; relu of a finite value is finite.
    """
    feats, w1, b1, w2, b2, wh, bh = map(ensure_tensor, (feats, w1, b1, w2, b2, wh, bh))
    extra = None if extra is None else ensure_tensor(extra)
    if wc is not None or cond is not None:
        wc, cond = ensure_tensor(wc), ensure_tensor(cond)
    fs, w1s, w2s = feats.data.shape, w1.data.shape, w2.data.shape  # no property calls
    length, h = fs if len(fs) == 2 else (0, 0)
    f, g_ch = w1s[0] if len(w1s) == 3 else 0, w2s[0] if len(w2s) == 3 else 0
    n_extra = 0 if extra is None else extra.data.size // max(length, 1)
    if (len(fs) != 2 or len(w1s) != 3 or len(w2s) != 3
            or extra is not None and extra.data.shape not in ((length,), (length, n_extra))
            or w1s[1] != h + n_extra or b1.data.shape != (f,) or w2s[1] != f
            or b2.data.shape != (g_ch,) or wh.data.shape != (1, g_ch, 1)
            or bh.data.shape != (1,) or wc is not None and wc.data.shape != (f, cond.data.size)):
        shapes = ", ".join(str(None if t is None else t.shape)
                           for t in (feats, extra, w1, b1, w2, b2, wh, bh, wc, cond))
        raise ShapeError("conv_tower expects feats (I,H), extra None, (I,) or (I,Z), w1 "
                         "(F,H+Z,K), b1 (F,), w2 (G,F,K2), b2 (G,), wh (1,G,1), bh (1,), and "
                         f"wc (F,D) with D cond values or neither, got {shapes}")
    x = feats.data.T
    if extra is not None:
        x = np.concatenate((x, extra.data.reshape(length, -1).T))
    _check_finite(x, "conv_tower")  # where the chain's concat or transpose raised
    wcd, cd = (None, None) if wc is None else (wc.data, cond.data)
    pre2, net_back = _conv_net(x, w1.data, b1.data, w2.data, b2.data, wcd, cd, "conv_tower")
    h2 = np.maximum(pre2, 0.0)  # C-ordered, so it is the 1x1 head's im2col columns as is
    whm = wh.data.reshape(1, g_ch)
    out = whm @ h2
    out += bh.data[:, None]
    slots = (feats, extra, w1, b1, w2, b2, wh, bh, wc, cond)

    def vjp(g):
        want_x = feats.requires_grad or extra is not None and extra.requires_grad
        want_w = (w1.requires_grad or b1.requires_grad or w2.requires_grad or b2.requires_grad
                  or wh.requires_grad or bh.requires_grad
                  or wc is not None and (wc.requires_grad or cond.requires_grad))
        g_o = (g + 0.0).reshape(1, length)  # the getitem VJP: 0.0 + g, so -0.0 becomes +0.0
        g_h2 = whm.T @ g_o
        g_h2 += 0.0  # the head's col2im: its one tap added into a zero buffer
        gx, g_w1, g_b1, g_w2, g_b2, g_wc, g_cond = net_back(g_h2 * (pre2 > 0.0), want_x, want_w)
        gf = ge = g_wh = g_bh = None
        if want_w:
            g_wh, g_bh = (g_o @ h2.T).reshape(wh.shape), _sum(g_o, axis=1)
        if want_x:  # the transpose and concat VJPs: views of the col2im's rows
            gf = gx.T[:, :h]
            if extra is not None:
                ge = gx.T[:, h:] if extra.ndim == 2 else gx[h]
        grads = (gf, ge, g_w1, g_b1, g_w2, g_b2, g_wh, g_bh, g_wc, g_cond)
        return [gr for t, gr in zip(slots, grads) if t is not None]

    return _make(out[0], tuple(t for t in slots if t is not None), vjp, "conv_tower")


def coupling_conditioner(x, w1, b1, w2, b2, wqkv=None, wo=None, scale: float = 1.0,
                         wc=None, cond=None) -> Tensor:
    """What an affine coupling layer computes from its passed half, as one tape
    node. With xa = ``x[:h]``: ``hs = xa + _attend(xa.T, wqkv, 1, scale, None,
    wo).T`` (or ``hs = xa`` without ``wqkv``), ``out = conv1d(relu(conv1d(hs,
    w1, b1) + wc @ cond), w2, b2)`` (the condition term only with ``wc``) and
    ``s = clamp(out[:h], -8, 8)`` (the clamp keeps exp(s) invertible);
    returns the (3h, T) rows ``[s, out[h:], xa]``: the
    log-scale, the shift and the passed half, as ``affine_coupling`` takes
    them. x: (2h, T); w1: (F, h, K), b1: (F,); w2: (2h, F, K2), b2: (2h,);
    wqkv: (3, h, d), wo: (d, h); wc: (F, D) with D ``cond`` values.

    The result and every cotangent equal, byte for byte, the chain it
    replaced: getitem, transpose, ``_attend`` as one node, transpose, add,
    ``conv1d``, ``pre + reshape(wc @ reshape(cond, (-1, 1)), (-1, 1))``, relu,
    ``conv1d``, getitem and clamp. That includes the transposes' copies (the
    attention runs on a contiguous xa.T and takes its cotangent as a
    transposed view), the order in which xa's three cotangents are summed
    (from the layer output, the residual, then the attention) and the
    ``+0.0`` start of x's getitem buffer. The conv output's cotangent skips
    the chain's ``+0.0`` start: every product and sum that reads it starts
    from +0.0 (OpenBLAS and numpy's reductions do), so the sign of a zero
    there cannot reach a cotangent. The VJP returns ``None`` for x, skipping
    its work, when x takes no gradient (the frames of the first layer).

    It raises ``NumericError``, naming itself, exactly where that chain
    raised: on a non-finite q, k or v, score or heads (in ``_attend``),
    residual sum, first conv output, condition or condition sum, or second
    conv output (the clamp would hide an inf), and through ``_make`` on a
    non-finite x[:h], which the result copies. A non-finite attention output
    makes the residual sum non-finite, and a non-finite condition product
    the condition sum.
    """
    x, w1, b1, w2, b2 = map(ensure_tensor, (x, w1, b1, w2, b2))
    if wqkv is not None or wo is not None:
        wqkv, wo = ensure_tensor(wqkv), ensure_tensor(wo)
    if wc is not None or cond is not None:
        wc, cond = ensure_tensor(wc), ensure_tensor(cond)
    slots = (x, w1, b1, w2, b2, wqkv, wo, wc, cond)
    xs, w1s, w2s = x.data.shape, w1.data.shape, w2.data.shape
    h = xs[0] // 2 if len(xs) == 2 else 0
    f = w1s[0] if len(w1s) == 3 else 0
    if (len(xs) != 2 or xs[0] != 2 * h or len(w1s) != 3 or w1s[1] != h
            or b1.data.shape != (f,) or len(w2s) != 3 or w2s[:2] != (2 * h, f)
            or b2.data.shape != (2 * h,)
            or wqkv is not None and (wqkv.data.ndim != 3 or wqkv.data.shape[:2] != (3, h)
                                     or wo.data.shape != (wqkv.data.shape[2], h))
            or wc is not None and wc.data.shape != (f, cond.data.size)):
        shapes = ", ".join(str(None if t is None else t.shape) for t in slots)
        raise ShapeError("coupling_conditioner expects x (2h,T), w1 (F,h,K), b1 (F,), w2 "
                         "(2h,F,K2), b2 (2h,), wqkv (3,h,d) and wo (d,h) or neither, and wc "
                         f"(F,D) with D cond values or neither, got {shapes}")
    op = "coupling_conditioner"
    length = xs[1]
    xa = x.data[:h]
    hs = xa
    if wqkv is not None:  # the chain's getitem and transpose made xa.T contiguous
        a, attention_back = _attend(np.ascontiguousarray(xa.T), wqkv.data, 1, scale, None,
                                    wo.data, op)
        hs = xa + a.T
        _check_finite(hs, op)
    wcd, cd = (None, None) if wc is None else (wc.data, cond.data)
    out, net_back = _conv_net(hs, w1.data, b1.data, w2.data, b2.data, wcd, cd, op)
    data = np.empty((3 * h, length))
    np.minimum(np.maximum(out[:h], -8.0), 8.0, out=data[:h])
    data[h : 2 * h] = out[h:]
    data[2 * h :] = xa

    def vjp(g):
        g_out = np.empty((2 * h, length))
        s_in = out[:h]
        np.multiply(g[:h], (s_in > -8.0) & (s_in < 8.0), out=g_out[:h])  # the clamp VJP
        g_out[h:] = g[h : 2 * h]  # no +0.0 start: what reads g_out starts from +0.0
        g_hs, g_w1, g_b1, g_w2, g_b2, g_wc, g_cond = net_back(
            g_out, x.requires_grad or wqkv is not None, True)
        g_x = g_wqkv = g_wo = None
        if wqkv is not None:  # the transpose VJPs hand over transposed views
            g_at, g_wqkv, g_wo = attention_back(g_hs.T, x.requires_grad)
        if x.requires_grad:  # xa's cotangents, newest consumer first
            g_xa = g[2 * h :] + g_hs
            if wqkv is not None:
                g_xa += g_at.T
            g_x = _into_zeros(xs, slice(None, h), g_xa)
        grads = (g_x, g_w1, g_b1, g_w2, g_b2, g_wqkv, g_wo, g_wc, g_cond)
        return [gr for t, gr in zip(slots, grads) if t is not None]

    return _make(data, tuple(t for t in slots if t is not None), vjp, op)


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------


class Rng:
    """Seeded PCG64 stream (numpy's documented generator).

    The same seed yields the same stream across runs and platforms as long as
    calls happen in the same order. ``child(tag)`` seeds a stream from the
    root's ``(seed, tag)`` alone, so a grandchild draws what the root's child
    of its tag draws: ``Rng(7).child(3).child(1)`` draws ``Rng(7).child(1)``'s.
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
        """Uniform ints in [low, high). A draw of ``shape`` n consumes the stream
        exactly as n scalar draws do, to the same values and the same generator
        state, whatever the range; the corpus sampler relies on it and
        ``TestRng`` pins it."""
        out = self._gen.integers(low, high, size=shape)
        return int(out) if shape is None else out

    def child(self, tag: int) -> "Rng":
        return Rng(self.seed, _entropy=(self.seed, int(tag)))


_MAX_FLOAT64S = np.iinfo(np.intp).max // 8  # numpy refuses more, before it allocates


def _spend(shape):
    if _settings.budget is not None:
        limit, left = _settings.budget
        n = math.prod(shape) if isinstance(shape, tuple) else int(shape)
        if left < n <= _MAX_FLOAT64S:  # past that, numpy's own "array is too big" speaks
            raise ValueError(f"its parameters need more than {limit} values")
        _settings.budget = (limit, left - n)


def init_uniform(rng: Rng, shape, fan_in: int) -> Tensor:
    """Trainable parameter init: uniform in [-k, k], k = 1/sqrt(fan_in)."""
    _spend(shape)
    k = 1.0 / math.sqrt(max(1, fan_in))
    return Tensor(rng.uniform(-k, k, shape), requires_grad=True)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    _spend(shape)
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


@contextlib.contextmanager
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


def pack_params(params) -> np.ndarray:
    """Copy the values of ``params`` bit for bit, in order, into one new
    contiguous float64 buffer, rebind each ``p.data`` to a view of its slice
    and return the buffer. From then on a parameter must be written in place
    (``p.data[...] = x``) to keep viewing it, never rebound. A buffer nothing
    views any more is freed."""
    flat = np.empty(sum(p.size for p in params))
    lo = 0
    for p in params:
        hi = lo + p.size
        flat[lo:hi] = p.data.reshape(-1)
        p.data = flat[lo:hi].reshape(p.shape)
        lo = hi
    return flat


class AdamW:
    """AdamW (Loshchilov & Hutter, arXiv 1711.05101) over one flat buffer.

    The constructor packs its parameters into a buffer of its own
    (``pack_params``), so a step is a fixed handful of in-place ufuncs over
    the whole buffer instead of a loop over parameters. From then on a
    parameter must be written in place (``p.data[...] = x``), never rebound;
    ``step`` raises if one was.

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
        self._flat = pack_params(self.params)
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
        p -= (lr*m_hat) / (sqrt(v_hat) + eps), skipping m_hat's divide once
        its bias correction is exactly 1.0 (it would return m).
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
        # the first bias correction rounds to exactly 1.0 once beta1**t <= 2**-54
        # (t >= 168 at beta1 = 0.8, t >= 1 at beta1 = 0), and m / 1.0 is m bit for bit
        bc1 = 1.0 - c.beta1**self.t
        if bc1 == 1.0:
            np.multiply(m, lr, out=s1)
        else:
            np.divide(m, bc1, out=s1)
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
