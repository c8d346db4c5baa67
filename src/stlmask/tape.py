"""Reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`Var` wraps an array.  Leaves are built directly, and every other
node by ``_node(data, vjp, *saved)``: its parents are the :class:`Var`
entries of ``saved``, and :func:`backward` calls ``vjp(g, *saved)``, a
module-level function, to route the node's cotangent ``g`` to them.  Any
other operand, an array or a number, is a constant: it gets no leaf node
and no gradient.  A node whose operands are all constants is a constant
too, so it is returned as a plain float64 array, not a :class:`Var`: a
value that no leaf reaches is not traced, and constant in is constant out
at every primitive.

Graphs are built eagerly by the engine code.  Every node takes a creation
sequence number, and a node's parents exist before it does, so descending
sequence order is a topological order: ``backward`` collects the reachable
nodes with one stack walk and calls their vjps in that order (formula graphs
can reach hundreds of thousands of nodes, so no recursion).  Window
reductions run along the last axis; leading axes act as batch dimensions.

Elementwise nodes, with one operand or two, keep their partial derivatives
as factors (``_factors_vjp``).  Each window max/min (``_window_reduce``),
each running max/min along the last axis (``cum_reduce``, a prefix or
suffix scan) and each elementwise two-operand max/min (``_pair_reduce``) is
a single tape node in all three modes, built by one implementation per
shape that takes the mode, and the direction as a sign.  A pair node's
forward computes its value only (``np.maximum``, ``np.logaddexp`` or the
weighted average) and keeps its operands; its vjp rebuilds the tie mask or
the weights from them and the value, so a value-only graph builds no
factors and a node keeps no factor arrays alive.  The running
softmax average is a convex recurrence weighted from the log-sum-exp
running scan; it and both smooth scans' vjps are doubling scans of linear
recurrences (``_linear_scan``), so no scan loops over the length in Python.
Untimed hard until is one ``hard_until`` node: a Hillis-Steele doubling
scan of the clamps ``u -> min(H, max(M, u))``, which compose into clamps,
so it takes log2(L) elementwise steps and O(L) memory.  Untimed log-sum-exp
until is one ``lse_until`` node: its window sums are taken in the exp
domain relative to that hard until, tile by tile of start rows, and its vjp
recomputes each tile instead of keeping the ``(L, L)`` windows.  Hard
reductions route the full subgradient to the first extremal entry of the
window in ascending index order, or to the first operand on a pairwise tie;
``hard_until`` routes the same subgradient as the gathered until it stands
for.  Gathers, hard window reductions and hard scans scatter their gradient
back with one flattened ``np.bincount`` (``_gather_vjp``).  Smooth window
reductions factor out a detached maximum over the kept entries before
exponentiation, so large temperatures cannot overflow, and route the
analytic gradient to the input and the weights.
"""

from __future__ import annotations

import itertools
from operator import attrgetter

import numpy as np

from . import smoothing
from .core import EmptyWindowError, Hard, LogSumExp, Mode, SoftMax

__all__ = [
    "Var",
    "as_var",
    "backward",
    "exp",
    "log",
    "sigmoid",
    "relu",
    "sqrt",
    "square",
    "vsum",
    "cumsum0",
    "stack_last",
    "concat_last",
    "take_last",
    "index_last",
    "hard_max",
    "smooth_max",
    "smooth_min",
    "pair_smooth_max",
    "pair_smooth_min",
    "cum_reduce",
    "hard_until",
    "lse_until",
]


_creation = itertools.count()


class Var:
    """Node in the computation graph: an array plus the vjp to its parents."""

    __slots__ = ("data", "grad", "_parents", "_vjp", "_saved", "_seq")
    # numpy defers to the reflected operators below instead of broadcasting
    # an ndarray left operand into an object array of Vars
    __array_ufunc__ = None

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = ()
        self._vjp = None
        self._saved = ()
        self._seq = next(_creation)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Var(shape={self.data.shape}, leaf={self._vjp is None})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)


def as_var(x) -> Var:
    """``x``, or a leaf holding it: a value that reaches no leaf is a plain
    array, and :func:`backward` starts from a node."""
    return x if isinstance(x, Var) else Var(x)


def _node(data, vjp, *saved):
    """Node for ``data``: ``vjp(g, *saved)`` routes its cotangent ``g`` to the
    :class:`Var` entries of ``saved``, its parents.  With none, the bare
    float64 array: a constant."""
    parents = tuple([v for v in saved if isinstance(v, Var)])
    if not parents:
        return np.asarray(data, dtype=np.float64)
    out = Var(data)
    out._parents = parents
    out._vjp = vjp
    out._saved = saved
    return out


def _accum(v, g: np.ndarray):
    """Add ``g``, summed over the axes ``v`` was broadcast along, into
    ``v.grad``; a constant operand takes nothing."""
    if isinstance(v, Var):
        g = _unbroadcast(g, v.data.shape)
        v.grad = g if v.grad is None else v.grad + g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(out: Var, seed=None):
    """Accumulate gradients of ``out`` into every reachable leaf's ``.grad``."""
    inner = []
    seen = {out}
    stack = [out]
    while stack:
        node = stack.pop()
        if node._vjp is not None:
            inner.append(node)
        for p in node._parents:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    # children are created after their parents, so a node's vjp runs
    # only once every consumer has accumulated into its grad
    inner.sort(key=attrgetter("_seq"), reverse=True)
    out.grad = np.ones_like(out.data) if seed is None else np.asarray(seed, dtype=np.float64)
    for node in inner:
        if node.grad is not None:
            node._vjp(node.grad, *node._saved)


# ---------------------------------------------------------------------------
# Elementwise primitives
# ---------------------------------------------------------------------------

def _array(x):
    """The array behind an operand: a :class:`Var`'s data, else the value
    itself as a float64 constant (``None`` stays ``None``)."""
    if x is None:
        return None
    return x.data if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _factors_vjp(g, a, da, b=None, db=()):
    """Sends the cotangent times each factor of ``da`` in turn to ``a``,
    likewise ``db`` to ``b``."""
    for v, factors in ((a, da), (b, db)):
        if isinstance(v, Var):
            gv = g
            for f in factors:
                gv = gv * f
            _accum(v, gv)


def add(a, b) -> Var:
    return _node(_array(a) + _array(b), _factors_vjp, a, (), b, ())


def sub(a, b) -> Var:
    return _node(_array(a) - _array(b), _factors_vjp, a, (), b, (-1.0,))


def mul(a, b) -> Var:
    x, y = _array(a), _array(b)
    return _node(x * y, _factors_vjp, a, (y,), b, (x,))


def div(a, b) -> Var:
    x, y = _array(a), _array(b)
    return _node(x / y, _factors_vjp, a, (1.0 / y,), b, (-x / y / y,))


def neg(a) -> Var:
    return _node(-_array(a), _factors_vjp, a, (-1.0,))


def exp(a) -> Var:
    data = np.exp(_array(a))
    return _node(data, _factors_vjp, a, (data,))


def log(a) -> Var:
    x = _array(a)
    return _node(np.log(x), _factors_vjp, a, (1.0 / x,))


def sigmoid(a) -> Var:
    s = smoothing.sigmoid(_array(a))
    return _node(s, _factors_vjp, a, (s, 1.0 - s))


def relu(a) -> Var:
    x = _array(a)
    mask = x > 0
    return _node(np.where(mask, x, 0.0), _factors_vjp, a, (mask,))


def sqrt(a) -> Var:
    data = np.sqrt(_array(a))
    return _node(data, _factors_vjp, a, (0.5 / data,))


def square(a) -> Var:
    x = _array(a)
    return _node(x * x, _factors_vjp, a, (2.0, x))


# ---------------------------------------------------------------------------
# Shape / gather primitives
# ---------------------------------------------------------------------------

def _sum_vjp(g, a, axis):
    if axis is not None:
        g = np.expand_dims(g, axis)
    _accum(a, np.broadcast_to(g, a.data.shape).copy())


def vsum(a, axis=None) -> Var:
    return _node(np.sum(_array(a), axis=axis), _sum_vjp, a, axis)


def _cumsum0_vjp(g, a):
    _accum(a, np.flip(np.cumsum(np.flip(g, axis=0), axis=0), axis=0))


def cumsum0(a) -> Var:
    return _node(np.cumsum(_array(a), axis=0), _cumsum0_vjp, a)


def _stack_vjp(g, *vs):
    for i, v in enumerate(vs):
        _accum(v, g[..., i])


def stack_last(vs) -> Var:
    return _node(np.stack([_array(v) for v in vs], axis=-1), _stack_vjp, *vs)


def _concat_vjp(g, ends, *vs):
    start = 0
    for v, end in zip(vs, ends):
        _accum(v, g[..., start:end])
        start = end


def concat_last(vs) -> Var:
    """Join along the last axis."""
    datas = [_array(v) for v in vs]
    ends = np.cumsum([d.shape[-1] for d in datas])
    return _node(np.concatenate(datas, axis=-1), _concat_vjp, ends, *vs)


def _index_vjp(g, a, i):
    acc = np.zeros_like(a.data)
    acc[..., i] = g
    _accum(a, acc)


def index_last(a, i: int | slice) -> Var:
    """Entry ``i`` of the last axis, or the entries of a slice ``i``."""
    return _node(_array(a)[..., i], _index_vjp, a, i)


def _scatter_last(g: np.ndarray, idx: np.ndarray, shape) -> np.ndarray:
    """Zeros of ``shape`` plus ``g`` summed in at last-axis positions ``idx``
    (shared by all leading axes, or one per entry of ``g``): one bincount."""
    size = int(np.prod(shape, dtype=np.intp))
    rows = np.arange(0, size, shape[-1], dtype=np.intp)
    flat = rows.reshape(shape[:-1] + (1,) * (g.ndim - len(shape) + 1)) + idx
    return np.bincount(flat.ravel(), weights=g.ravel(), minlength=size).reshape(shape)


def _gather_vjp(g, a, idx):
    """Sends ``g`` back to the last-axis positions ``idx`` of ``a`` it was
    gathered from."""
    _accum(a, _scatter_last(g, idx, a.data.shape))


def take_last(a, idx: np.ndarray) -> Var:
    """Gather along the last axis: ``out[..., *k] = a[..., idx[*k]]``."""
    idx = np.asarray(idx, dtype=np.intp)
    return _node(np.take(_array(a), idx, axis=-1), _gather_vjp, a, idx)


# ---------------------------------------------------------------------------
# Reductions (always along the last axis)
# ---------------------------------------------------------------------------

def _window_reduce(a, mode: Mode, weights, sign: float) -> Var:
    """``sign * reduce-max(sign * a)`` under ``mode`` over the entries kept
    by ``weights > 0``, one node.  With ``x = sign * a``, ``m`` the max of
    ``x`` over kept entries (detached, taken at its first argmax),
    ``ez = exp(tau * (x - m))`` (0 where masked), ``e = w * ez`` and
    ``s = sum(e)``:

    * hard: ``m``; the subgradient is one-hot at the first extremal kept
      entry, and the weights, which only select, get none;
    * log-sum-exp: ``log(s) / tau + m``; d/dx = ``e / s``,
      d/dw = ``ez / (tau * s)``;
    * softmax: ``sum(x * e) / s``; d/dx = ``e / s * (1 + tau * (x - out))``,
      d/dw = ``ez * (x - out) / s``.

    ``d/da = d/dx`` because ``sign * sign == 1``; the weight gradient carries
    ``sign``.
    """
    if not isinstance(mode, (Hard, LogSumExp, SoftMax)):
        raise TypeError(f"unsupported mode: {mode!r}")
    x = _array(a) if sign > 0 else -_array(a)
    w = _array(weights)
    # entries outside the kept set may exceed the kept max; silence them
    # before exponentiation so 0 * exp(huge) cannot produce NaN
    x_kept = x if w is None else np.where(w > 0, x, -np.inf)
    sel = np.argmax(x_kept, axis=-1)
    m = np.take_along_axis(x_kept, sel[..., None], axis=-1)
    if not np.all(np.isfinite(m)):
        raise EmptyWindowError("reduction over a window with no kept entries")
    if isinstance(mode, Hard):
        return _node(sign * m[..., 0], _gather_vjp, a, sel)
    tau = mode.temp
    ez = np.exp((x_kept - m) * tau)
    e = ez if w is None else w * ez
    s = np.sum(e, axis=-1)
    if not np.all(s > 0):
        raise EmptyWindowError("smooth reduction over an all-zero-weight window")
    if isinstance(mode, LogSumExp):
        inner = np.log(s) * (1.0 / tau) + m[..., 0]
    else:
        inner = np.sum(x * e, axis=-1) / s
    return _node(sign * inner, _smooth_window_vjp, a, weights, mode, sign, x, inner, e, ez, s)


def _smooth_window_vjp(g, a, weights, mode, sign, x, inner, e, ez, s):
    lse = isinstance(mode, LogSumExp)
    tau = mode.temp
    g_s = (g / s)[..., None]
    dev = None if lse else x - inner[..., None]
    if isinstance(a, Var):
        _accum(a, g_s * e if lse else g_s * e * (1.0 + tau * dev))
    if isinstance(weights, Var):
        _accum(weights, (g_s * (sign / tau)) * ez if lse else (g_s * sign) * ez * dev)


def hard_max(a, weights=None) -> Var:
    """Exact max over kept entries; one-hot subgradient at the first argmax."""
    return _window_reduce(a, Hard(), weights, 1.0)


def smooth_max(a, mode: Mode, weights=None) -> Var:
    """Max-reduction along the last axis under the configured semantics."""
    if isinstance(mode, Hard):
        return hard_max(a, weights)
    return _window_reduce(a, mode, weights, 1.0)


def smooth_min(a, mode: Mode, weights=None) -> Var:
    """Min-reduction along the last axis: ``-smooth_max(-a)``."""
    return _window_reduce(a, mode, weights, -1.0)


def _pair_reduce(a, b, mode: Mode, sign: float) -> Var:
    """``sign * max(sign * a, sign * b)`` elementwise under ``mode``, one node.

    Hard ties go to the first operand.  With ``st = sign * tau``, log-sum-exp
    is ``logaddexp(st * a, st * b) / st`` with d/da = ``exp(st * (a - out))``,
    and softmax averages the operands with weights ``exp(st * (x - m))``,
    ``m`` their max (sign +1) or min (sign -1), with
    d/da = ``ea / (ea + eb) * (1 + st * (a - out))``.  The forward computes
    the value only; :func:`_pair_vjp` rebuilds the factors from the operands
    and the value when a gradient is asked for.
    """
    x, y = _array(a), _array(b)
    if isinstance(mode, Hard):
        data = np.maximum(x, y) if sign > 0 else np.minimum(x, y)
    elif isinstance(mode, LogSumExp):
        st = sign * mode.temp
        data = np.logaddexp(st * x, st * y) / st
    elif isinstance(mode, SoftMax):
        ea, eb, den = _softmax_pair_weights(x, y, sign * mode.temp, sign)
        data = (x * ea + y * eb) / den
    else:
        raise TypeError(f"unsupported mode: {mode!r}")
    return _node(data, _pair_vjp, a, b, x, y, mode, sign, data)


def _softmax_pair_weights(x, y, st, sign):
    """``exp(st * (x - m))``, ``exp(st * (y - m))`` and their sum."""
    m = np.maximum(x, y) if sign > 0 else np.minimum(x, y)
    ea = np.exp(st * (x - m))
    eb = np.exp(st * (y - m))
    return ea, eb, ea + eb


def _pair_vjp(g, a, b, x, y, mode, sign, out):
    """Rebuilds the factors of :func:`_pair_reduce` from the operand arrays
    ``x``, ``y`` and ``out`` with the same arithmetic, and sends ``g`` times
    them on."""
    if isinstance(mode, Hard):
        first = x >= y if sign > 0 else x <= y
        _factors_vjp(g, a, (first,), b, (~first,))
        return
    st = sign * mode.temp
    if isinstance(mode, LogSumExp):
        _factors_vjp(g, a, (np.exp(st * (x - out)),), b, (np.exp(st * (y - out)),))
        return
    ea, eb, den = _softmax_pair_weights(x, y, st, sign)
    _factors_vjp(g, a, (ea / den, 1.0 + st * (x - out)), b, (eb / den, 1.0 + st * (y - out)))


def pair_smooth_max(a, b, mode: Mode) -> Var:
    """Elementwise max of two operands; equal to stacking then reducing."""
    return _pair_reduce(a, b, mode, 1.0)


def pair_smooth_min(a, b, mode: Mode) -> Var:
    """Elementwise min of two operands; equal to stacking then reducing."""
    return _pair_reduce(a, b, mode, -1.0)


def _next_true(mask: np.ndarray) -> np.ndarray:
    """For every ``t``, the first ``j >= t`` along the last axis where
    ``mask[..., j]`` holds (the length where none does): a reversed running
    min over the record positions."""
    length = mask.shape[-1]
    rec = np.where(mask, np.arange(length, dtype=np.intp), length)
    return np.flip(np.minimum.accumulate(np.flip(rec, axis=-1), axis=-1), axis=-1)


def _first_extremum(y: np.ndarray, run: np.ndarray, reverse: bool) -> np.ndarray:
    """First argmax of each window of ``run``, the running max of ``y``.

    Suffix: the first ``j >= t`` with ``y[j] == run[j]`` (max of its own
    suffix).  Prefix: the last ``j <= t`` where ``y[j]`` raises the running max.
    """
    if reverse:
        return _next_true(y == run)
    pos = np.arange(y.shape[-1], dtype=np.intp)
    rises = np.concatenate([np.ones(y.shape[:-1] + (1,), dtype=bool),
                            y[..., 1:] > run[..., :-1]], axis=-1)
    return np.maximum.accumulate(np.where(rises, pos, 0), axis=-1)


def _linear_scan(r: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``acc_j = g_j + r_j * acc_{j - 1}`` along the last axis (``acc_0 =
    g_0``; ``r_0`` is unused) as a Hillis-Steele doubling scan: the affine
    maps ``u -> g + r * u`` compose into affine maps, so log2(L) elementwise
    steps give every ``acc`` at once."""
    acc = g.copy()
    r = r.copy()
    length = acc.shape[-1]
    step = 1
    while step < length:
        acc[..., step:] += r[..., step:] * acc[..., :-step]
        if 2 * step < length:
            r[..., step:] = r[..., step:] * r[..., :-step]
        step *= 2
    return acc


def _scan_order(v: np.ndarray, reverse: bool) -> np.ndarray:
    """``v`` with its last axis in scan order, reversed for a suffix scan;
    its own inverse."""
    return np.flip(v, axis=-1) if reverse else v


def _hard_cum_vjp(g, a, run, sign, reverse):
    # the argmax scan runs only when a gradient is asked for
    _gather_vjp(g, a, _first_extremum(sign * a.data, sign * run, reverse))


def _lse_cum_vjp(g, a, run, tau, sign, reverse):
    """With ``y = sign * a``, d/dy of ``sign * run``, the running log-sum-exp
    max of ``y``: window sums of ``exp(tau * (y_j - run_t))`` accumulated
    from the far end with ratios ``exp(tau * (run_j - run_{j - 1})) <= 1``,
    so neither they nor their products overflow."""
    y, run = sign * a.data, sign * run
    if not reverse:
        g, y, run = (np.flip(v, axis=-1) for v in (g, y, run))
    ratio = np.exp(tau * np.diff(run, axis=-1, prepend=run[..., :1]))
    grad = np.exp(tau * (y - run)) * _linear_scan(ratio, g)
    _accum(a, grad if reverse else np.flip(grad, axis=-1))


def _softmax_cum_vjp(g, a, y, u, carry, tau, reverse):
    """d/da of ``u``, the softmax averages of ``y = sign * a - shift``; the
    sign cancels.  ``y``, ``u`` and their carries come in scan order, and
    are flipped to the order of the suffix windows ``y[..., t:]``, where
    ``u_t = carry_t u_{t+1} + (1 - carry_t) y_t``.

    ``d u_t / d y_j = w_tj (1 + tau (y_j - u_t))`` with ``w_tj = carry_t ...
    carry_{j-1} (1 - carry_j)``, so the gradient is ``(1 - carry_j) ((1 + tau
    (y_j - u_j)) A_j - tau B_j)`` with ``A_j = g_j + carry_{j-1} A_{j-1}``
    (the log-sum-exp vjp's recurrence) and ``B_j = carry_{j-1} (B_{j-1} +
    (u_{j-1} - u_j) A_{j-1})``: two doubling scans."""
    if not reverse:
        g = np.flip(g, axis=-1)
    y, u, carry = (np.flip(v, axis=-1) for v in (y, u, carry))
    ratio = np.concatenate([np.zeros(carry.shape[:-1] + (1,)), carry[..., :-1]], axis=-1)
    acc = _linear_scan(ratio, g)
    step = np.zeros(acc.shape)
    step[..., 1:] = ratio[..., 1:] * (u[..., :-1] - u[..., 1:]) * acc[..., :-1]
    grad = (1.0 - carry) * ((1.0 + tau * (y - u)) * acc - tau * _linear_scan(ratio, step))
    _accum(a, grad if reverse else np.flip(grad, axis=-1))


def cum_reduce(a, mode: Mode, sign: float, reverse: bool = False) -> Var:
    """Running ``sign * reduce-max(sign * a)`` along the last axis, one node.

    ``out[..., t]`` reduces ``a[..., :t + 1]``, or ``a[..., t:]`` with
    ``reverse``.  Hard mode is exact, with the first-extremum subgradient;
    log-sum-exp scans with ``np.logaddexp`` (exact by associativity).  The
    softmax average is the convex recurrence ``u_j = c_j u_{j-1} + (1 - c_j)
    y_j`` in scan order (a :func:`_linear_scan`), where ``c_j = D_{j-1} /
    D_j``, the sigmoid of ``log D_{j-1} - tau y_j``, is the share of the
    normaliser ``D_j = sum_{i <= j} exp(tau y_i)`` that ``u_{j-1}`` holds.
    """
    x = _array(a)
    if isinstance(mode, Hard):
        op = np.maximum if sign > 0 else np.minimum
        run = _scan_order(op.accumulate(_scan_order(x, reverse), axis=-1), reverse)
        return _node(run, _hard_cum_vjp, a, run, sign, reverse)
    if isinstance(mode, LogSumExp):
        tau = mode.temp
        z = _scan_order((sign * tau) * x, reverse)
        run = sign * (_scan_order(np.logaddexp.accumulate(z, axis=-1), reverse) / tau)
        return _node(run, _lse_cum_vjp, a, run, tau, sign, reverse)
    if isinstance(mode, SoftMax):
        tau = mode.temp
        # shifting by the detached row max keeps the scanned logs small
        shift = np.max(sign * x, axis=-1, keepdims=True)
        y = _scan_order(sign * x - shift, reverse)
        z = tau * y
        run = np.logaddexp.accumulate(z, axis=-1)
        gap = np.concatenate([np.full(shift.shape, -np.inf), run[..., :-1]], axis=-1) - z
        carry = smoothing.sigmoid(gap)
        u = _linear_scan(carry, smoothing.sigmoid(-gap) * y)
        data = sign * (_scan_order(u, reverse) + shift)
        return _node(data, _softmax_cum_vjp, a, y, u, carry, tau, reverse)
    raise TypeError(f"unsupported mode: {mode!r}")


def _clamp_scan(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Untimed hard until of same-shape ``x`` (left) and ``y`` (right) along
    the last axis by a doubling scan of clamps; see :func:`hard_until`."""
    length = x.shape[-1]
    hi = x.copy()
    lo = np.minimum(y, x)
    step = 1
    while step < length:
        h1, m1 = hi[..., :-step], lo[..., :-step]
        h = np.minimum(h1, np.maximum(m1, hi[..., step:]))
        m = np.minimum(np.maximum(m1, lo[..., step:]), h)
        hi[..., :-step] = h
        lo[..., :-step] = m
        step *= 2
    return lo


def _hard_until_vjp(g, left, right, x, y, out):
    length = x.shape[-1]
    nxt = np.concatenate([out[..., 1:], np.full(out.shape[:-1] + (1,), -np.inf)], axis=-1)
    take_l = x <= np.maximum(y, nxt)
    src = _next_true(take_l | (y >= nxt))
    # left sources land in [0, L), right sources in [L, 2L)
    src = src + length * ~np.take_along_axis(take_l, src, axis=-1)
    buf = _scatter_last(g, src, out.shape[:-1] + (2 * length,))
    _accum(left, buf[..., :length])
    _accum(right, buf[..., length:])


def hard_until(left, right) -> Var:
    """Untimed hard until along the last axis, one node.

    ``out[..., t] = max_{j >= t} min(min(left[..., t:j + 1]), right[..., j])``,
    which obeys ``out_t = min(l_t, max(r_t, out_{t+1}))`` with ``out_L = -inf``
    (Donze, Ferrere & Maler, CAV 2013).  Each step is the clamp
    ``u -> min(H, max(M, u))`` with ``H = l_t`` and ``M = min(r_t, l_t)``;
    clamps compose into clamps (``H = min(H1, max(M1, H2))``,
    ``M = min(max(M1, M2), H)``), so a Hillis-Steele doubling scan of log2(L)
    elementwise steps gives every ``M`` at once, which is the output.  Only
    min and max are taken, so the values are exact.

    The subgradient is the one the gathered form (prefix mins, pairwise min,
    max over offsets) routes, rebuilt in O(L) only when a gradient is asked
    for: a max tie goes to ``r_t``, a min tie to ``l_t``, and entry ``t``
    follows the chain to the first step ``j >= t`` that stops it.
    """
    x, y = np.broadcast_arrays(_array(left), _array(right))
    out = _clamp_scan(x, y)
    return _node(out, _hard_until_vjp, left, right, x, y, out)


#: Start-row tiles of :func:`lse_until` (at most one per row).  Tile
#: ``[t0, t1)`` works on the window columns ``t0 .. L - 1`` only, which trims
#: the masked-out triangle and bounds each tile's temporaries.  For a batch-8
#: gradient at L=256, 16 tiles ran 20% faster than 8 and 32 no faster; each
#: tile adds a fixed cost of about 0.1 ms, which short signals feel.
LSE_UNTIL_TILES = 16

#: Exponents above this are clipped in :func:`lse_until`.  A clipped term
#: leaves its ``q`` below e**-300, where the exact ``q`` is smaller still,
#: and ``s >= 1 / (L + 1)``, so the output does not move; it also keeps
#: ``A * q**2`` from forming ``inf * 0`` in the vjp.
_EXP_CAP = 300.0


def _until_tiles(length: int):
    """``(t0, t1, off)`` per start-row tile of :func:`lse_until`, where
    ``off[k, m]`` is 0 if column ``t0 + m`` lies in the window of start
    ``t0 + k`` (``m >= k``) and ``inf`` if not."""
    for rows in np.array_split(np.arange(length), min(length, LSE_UNTIL_TILES)):
        t0, t1 = int(rows[0]), int(rows[-1]) + 1
        keep = np.arange(length - t0)[None, :] >= np.arange(t1 - t0)[:, None]
        yield t0, t1, np.where(keep, 0.0, np.inf)


def _until_tile(x, y, centre, tau, t0, t1, off):
    """``A``, ``F`` and ``q`` of :func:`lse_until` for the start rows
    ``[t0, t1)`` and the window columns ``t0 .. L - 1``."""
    c = centre[..., t0:t1, None]
    big_a, big_f = c - x[..., None, t0:], c - y[..., None, t0:]
    for e in (big_a, big_f):
        e *= tau
        np.minimum(e, _EXP_CAP, out=e)
    big_a -= off
    np.exp(big_a, out=big_a)
    np.exp(big_f, out=big_f)
    q = np.cumsum(big_a, axis=-1)
    q += big_f
    q += off
    np.reciprocal(q, out=q)
    return big_a, big_f, q


def _lse_until_vjp(g, left, right, x, y, centre, tau, s):
    g_s = np.broadcast_to(g / s, s.shape)
    grad_l, grad_r = np.zeros(s.shape), np.zeros(s.shape)
    for t0, t1, off in _until_tiles(x.shape[-1]):
        big_a, big_f, q = _until_tile(x, y, centre, tau, t0, t1, off)
        q *= q
        q *= g_s[..., t0:t1, None]
        big_f *= q
        grad_r[..., t0:] += big_f.sum(axis=-2)
        big_a *= np.flip(np.cumsum(np.flip(q, axis=-1), axis=-1), axis=-1)
        grad_l[..., t0:] += big_a.sum(axis=-2)
    _accum(left, grad_l)
    _accum(right, grad_r)


def lse_until(left, right, mode: LogSumExp) -> Var:
    """Untimed log-sum-exp until along the last axis, one node.

    The gathered form takes, for every start ``t`` and window end ``j >= t``,
    the log-sum-exp min of ``left[t..j]`` and ``right[j]`` and then the
    log-sum-exp max over ``j``.  With the hard until ``c_t`` (the clamp scan
    of :func:`hard_until`) as centre, ``A_ti = exp(-tau (l_i - c_t))``,
    ``E_tj = sum_{i=t..j} A_ti``, ``F_tj = exp(-tau (r_j - c_t))`` and
    ``q_tj = 1 / (E_tj + F_tj)``, that is exactly
    ``out_t = c_t + log(s_t) / tau`` with ``s_t = sum_{j >= t} q_tj``.
    Soft min is at most hard min, so every ``E + F >= 1`` and ``q <= 1``, and
    the window end of the hard until has ``q >= 1 / (L + 1)``: ``s`` can
    neither overflow nor vanish.

    Start rows are processed in ``LSE_UNTIL_TILES`` tiles.  The node keeps
    only ``c`` and ``s``; the vjp recomputes ``A``, ``F`` and ``q`` per tile
    and, with ``G = g / s * q**2``, adds ``sum_t G_tj F_tj`` to ``d right_j``
    and ``sum_t A_ti sum_{j >= i} G_tj`` to ``d left_i``.  A tile's arrays
    hold ``B * L * L / LSE_UNTIL_TILES`` entries at most, never the
    ``(B, L, L)`` windows.
    """
    if not isinstance(mode, LogSumExp):
        raise TypeError(f"lse_until needs log-sum-exp mode, got {mode!r}")
    tau = mode.temp
    x, y = np.broadcast_arrays(_array(left), _array(right))
    centre = _clamp_scan(x, y)
    s = np.empty(centre.shape)
    for t0, t1, off in _until_tiles(x.shape[-1]):
        s[..., t0:t1] = _until_tile(x, y, centre, tau, t0, t1, off)[2].sum(axis=-1)
    return _node(centre + np.log(s) / tau, _lse_until_vjp, left, right, x, y, centre, tau, s)
