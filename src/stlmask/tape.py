"""Reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`Var` wraps an array together with the closure that routes incoming
cotangents to its parents.  Graphs are built eagerly by the engine code and
differentiated with :func:`backward`.  Every node takes a creation sequence
number, and a node's parents exist before it does, so descending sequence
order is a topological order: ``backward`` collects the reachable nodes with
one stack walk and calls their closures in that order (formula graphs can
reach hundreds of thousands of nodes, so no recursion).  Window reductions
run along the last axis; leading axes act as batch dimensions.

Each window max/min (``_hard_reduce``, ``_smooth_reduce``), each running
max/min along the last axis (``cum_reduce``, a prefix or suffix scan) and
each elementwise two-operand max/min (``_pair_reduce``) is a single tape
node in all three modes, built by one implementation per shape that takes
the direction as a sign.  The running softmax average is a convex
recurrence weighted from the log-sum-exp running scan; it and both smooth
scans' vjps are doubling scans of linear recurrences (``_linear_scan``), so
no scan loops over the length in Python.  Untimed hard until is one
``hard_until`` node: a Hillis-Steele doubling scan of the clamps
``u -> min(H, max(M, u))``, which compose into clamps, so it takes log2(L)
elementwise steps and O(L) memory.  Untimed log-sum-exp until is one
``lse_until`` node: its window sums are taken in the exp domain relative to
that hard until, tile by tile of start rows, and its vjp recomputes each
tile instead of keeping the ``(L, L)`` windows.  Hard reductions route the
full subgradient to the first extremal entry of the window in ascending
index order, or to the first operand on a pairwise tie; ``hard_until``
routes the same subgradient as the gathered until it stands for.  Gathers
and hard scans scatter their gradient back with one flattened
``np.bincount``.  Smooth window reductions factor out a detached maximum
over the kept entries before exponentiation, so large temperatures cannot
overflow, and route the analytic gradient to the input and the weights when
each is a :class:`Var`.  An operand passed as an array or a number, to a
reduction, a pairwise max/min, the elementwise arithmetic or
``concat_last``, is a constant: it gets no leaf node and no gradient.
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
    """Node in the computation graph: an array plus a backward closure."""

    __slots__ = ("data", "grad", "_parents", "_vjp", "_seq")
    # numpy defers to the reflected operators below instead of broadcasting
    # an ndarray left operand into an object array of Vars
    __array_ufunc__ = None

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp
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
    return x if isinstance(x, Var) else Var(x)


def _accum(node: Var, g: np.ndarray):
    node.grad = g if node.grad is None else node.grad + g


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
    # children are created after their parents, so a node's closure runs
    # only once every consumer has accumulated into its grad
    inner.sort(key=attrgetter("_seq"), reverse=True)
    out.grad = np.ones_like(out.data) if seed is None else np.asarray(seed, dtype=np.float64)
    for node in inner:
        if node.grad is not None:
            node._vjp(node.grad)


# ---------------------------------------------------------------------------
# Elementwise primitives
# ---------------------------------------------------------------------------

def _array(x):
    """The array behind an operand: a :class:`Var`'s data, else the value
    itself as a float64 constant (``None`` stays ``None``)."""
    if x is None:
        return None
    return x.data if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


class _BinaryVjp:
    """Sends the cotangent times each factor of ``da`` in turn to ``a``
    (``None``: a constant), likewise to ``b``.  One object per node, not a
    closure and its cells, keeps big graphs cheap for the garbage collector."""

    __slots__ = ("a", "b", "da", "db")

    def __init__(self, a, b, da, db):
        self.a, self.b, self.da, self.db = a, b, da, db

    def __call__(self, g):
        for v, factors in ((self.a, self.da), (self.b, self.db)):
            if v is not None:
                gv = g
                for f in factors:
                    gv = gv * f
                _accum(v, _unbroadcast(gv, v.data.shape))


def _binary(a, b, data, da=(), db=()) -> Var:
    """Node for ``data = f(a, b)``, the partial derivatives as factor tuples;
    only :class:`Var` operands become parents."""
    ta, tb = isinstance(a, Var), isinstance(b, Var)
    out = Var(data, (a, b) if ta and tb else (a,) if ta else (b,) if tb else ())
    if out._parents:
        out._vjp = _BinaryVjp(a if ta else None, b if tb else None, da, db)
    return out


def add(a, b) -> Var:
    return _binary(a, b, _array(a) + _array(b))


def sub(a, b) -> Var:
    return _binary(a, b, _array(a) - _array(b), (), (-1.0,))


def mul(a, b) -> Var:
    x, y = _array(a), _array(b)
    return _binary(a, b, x * y, (y,), (x,))


def div(a, b) -> Var:
    x, y = _array(a), _array(b)
    return _binary(a, b, x / y, (1.0 / y,), (-x / y / y,))


def neg(a) -> Var:
    a = as_var(a)
    out = Var(-a.data, (a,))
    out._vjp = lambda g: _accum(a, -g)
    return out


def exp(a) -> Var:
    a = as_var(a)
    data = np.exp(a.data)
    out = Var(data, (a,))
    out._vjp = lambda g: _accum(a, g * data)
    return out


def log(a) -> Var:
    a = as_var(a)
    out = Var(np.log(a.data), (a,))
    out._vjp = lambda g: _accum(a, g / a.data)
    return out


def sigmoid(a) -> Var:
    a = as_var(a)
    out = Var(smoothing.sigmoid(a.data), (a,))
    s = out.data
    out._vjp = lambda g: _accum(a, g * s * (1.0 - s))
    return out


def relu(a) -> Var:
    a = as_var(a)
    mask = a.data > 0
    out = Var(np.where(mask, a.data, 0.0), (a,))
    out._vjp = lambda g: _accum(a, g * mask)
    return out


def sqrt(a) -> Var:
    a = as_var(a)
    data = np.sqrt(a.data)
    out = Var(data, (a,))
    out._vjp = lambda g: _accum(a, g * 0.5 / data)
    return out


def square(a) -> Var:
    a = as_var(a)
    out = Var(a.data * a.data, (a,))
    out._vjp = lambda g: _accum(a, g * 2.0 * a.data)
    return out


# ---------------------------------------------------------------------------
# Shape / gather primitives
# ---------------------------------------------------------------------------

def vsum(a, axis=None) -> Var:
    a = as_var(a)
    out = Var(np.sum(a.data, axis=axis), (a,))
    def vjp(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())
    out._vjp = vjp
    return out


def cumsum0(a) -> Var:
    a = as_var(a)
    out = Var(np.cumsum(a.data, axis=0), (a,))
    out._vjp = lambda g: _accum(a, np.flip(np.cumsum(np.flip(g, axis=0), axis=0), axis=0))
    return out


def stack_last(vs) -> Var:
    vs = [as_var(v) for v in vs]
    out = Var(np.stack([v.data for v in vs], axis=-1), tuple(vs))
    def vjp(g):
        for i, v in enumerate(vs):
            _accum(v, g[..., i])
    out._vjp = vjp
    return out


def concat_last(vs) -> Var:
    """Join along the last axis; operands that are not :class:`Var` are
    constants."""
    datas = [_array(v) for v in vs]
    ends = np.cumsum([d.shape[-1] for d in datas])
    out = Var(np.concatenate(datas, axis=-1), tuple(v for v in vs if isinstance(v, Var)))
    def vjp(g):
        for v, end, d in zip(vs, ends, datas):
            if isinstance(v, Var):
                _accum(v, g[..., end - d.shape[-1]:end])
    out._vjp = vjp
    return out


def index_last(a, i: int) -> Var:
    a = as_var(a)
    out = Var(a.data[..., i], (a,))
    def vjp(g):
        acc = np.zeros_like(a.data)
        acc[..., i] = g
        _accum(a, acc)
    out._vjp = vjp
    return out


def _scatter_last(g: np.ndarray, idx: np.ndarray, shape) -> np.ndarray:
    """Zeros of ``shape`` plus ``g`` summed in at last-axis positions ``idx``
    (shared by all leading axes, or one per entry of ``g``): one bincount."""
    size = int(np.prod(shape, dtype=np.intp))
    rows = np.arange(0, size, shape[-1], dtype=np.intp)
    flat = rows.reshape(shape[:-1] + (1,) * (g.ndim - len(shape) + 1)) + idx
    return np.bincount(flat.ravel(), weights=g.ravel(), minlength=size).reshape(shape)


def take_last(a, idx: np.ndarray) -> Var:
    """Gather along the last axis: ``out[..., *k] = a[..., idx[*k]]``."""
    a = as_var(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = Var(np.take(a.data, idx, axis=-1), (a,))
    out._vjp = lambda g: _accum(a, _scatter_last(g, idx, a.data.shape))
    return out


# ---------------------------------------------------------------------------
# Reductions (always along the last axis)
# ---------------------------------------------------------------------------

def _hard_reduce(a, weights, sign: float) -> Var:
    """``sign * reduce-max(sign * a)`` exactly, one node.

    ``weights`` only select which entries participate (``> 0`` keeps); they
    receive no gradient.  The subgradient is one-hot at the first extremal
    kept entry; a non-``Var`` operand is a constant and gets none.
    """
    x, w = _array(a), _array(weights)
    fill, pick = (-np.inf, np.argmax) if sign > 0 else (np.inf, np.argmin)
    masked = x if w is None else np.where(w > 0, x, fill)
    sel = pick(masked, axis=-1)
    data = np.take_along_axis(masked, sel[..., None], axis=-1)[..., 0]
    if not np.all(np.isfinite(data)):
        raise EmptyWindowError("hard reduction over a window with no kept entries")
    if not isinstance(a, Var):
        return Var(data)
    out = Var(data, (a,))
    def vjp(g):
        acc = np.zeros_like(a.data)
        np.put_along_axis(acc, sel[..., None], g[..., None], axis=-1)
        _accum(a, acc)
    out._vjp = vjp
    return out


def hard_max(a, weights=None) -> Var:
    """Exact max over kept entries; one-hot subgradient at the first argmax."""
    return _hard_reduce(a, weights, 1.0)


def _smooth_reduce(a, mode: Mode, weights, sign: float) -> Var:
    """``sign * reduce-max(sign * a)`` in log-sum-exp or softmax mode, one node.

    With ``x = sign * a``, ``m`` the detached max of ``x`` over kept entries
    (``w > 0``), ``ez = exp(tau * (x - m))`` (0 where masked), ``e = w * ez``
    and ``s = sum(e)``:

    * log-sum-exp: ``log(s) / tau + m``; d/dx = ``e / s``,
      d/dw = ``ez / (tau * s)``;
    * softmax: ``sum(x * e) / s``; d/dx = ``e / s * (1 + tau * (x - out))``,
      d/dw = ``ez * (x - out) / s``.

    ``d/da = d/dx`` because ``sign * sign == 1``; the weight gradient carries
    ``sign``.  Only operands that are :class:`Var` become parents and get a
    gradient; arrays are constants.
    """
    if not isinstance(mode, (LogSumExp, SoftMax)):
        raise TypeError(f"unsupported mode: {mode!r}")
    lse = isinstance(mode, LogSumExp)
    tau = mode.temp
    x = _array(a) if sign > 0 else -_array(a)
    w = _array(weights)
    # entries outside the kept set may exceed the kept max; silence them
    # before exponentiation so 0 * exp(huge) cannot produce NaN
    x_kept = x if w is None else np.where(w > 0, x, -np.inf)
    m = np.max(x_kept, axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise EmptyWindowError("smooth reduction over a window with no kept entries")
    ez = np.exp((x_kept - m) * tau)
    e = ez if w is None else w * ez
    s = np.sum(e, axis=-1)
    if not np.all(s > 0):
        raise EmptyWindowError("smooth reduction over an all-zero-weight window")
    inner = np.log(s) * (1.0 / tau) + m[..., 0] if lse else np.sum(x * e, axis=-1) / s
    taped_a = a if isinstance(a, Var) else None
    taped_w = weights if isinstance(weights, Var) else None
    parents = tuple(v for v in (taped_a, taped_w) if v is not None)
    out = Var(sign * inner, parents)
    if not parents:
        return out

    def vjp(g):
        g_s = (g / s)[..., None]
        dev = None if lse else x - inner[..., None]
        if taped_a is not None:
            ga = g_s * e if lse else g_s * e * (1.0 + tau * dev)
            _accum(taped_a, _unbroadcast(ga, taped_a.data.shape))
        if taped_w is not None:
            gw = (g_s * (sign / tau)) * ez if lse else (g_s * sign) * ez * dev
            _accum(taped_w, _unbroadcast(gw, taped_w.data.shape))
    out._vjp = vjp
    return out


def smooth_max(a, mode: Mode, weights=None) -> Var:
    """Max-reduction along the last axis under the configured semantics.

    A non-``Var`` operand or weight array is a constant: no parent, no
    gradient."""
    if isinstance(mode, Hard):
        return hard_max(a, weights)
    return _smooth_reduce(a, mode, weights, 1.0)


def smooth_min(a, mode: Mode, weights=None) -> Var:
    """Min-reduction along the last axis: ``-smooth_max(-a)``."""
    if isinstance(mode, Hard):
        return _hard_reduce(a, weights, -1.0)
    return _smooth_reduce(a, mode, weights, -1.0)


def _pair_reduce(a, b, mode: Mode, sign: float) -> Var:
    """``sign * max(sign * a, sign * b)`` elementwise under ``mode``, one node.

    Hard ties go to the first operand.  With ``st = sign * tau``, log-sum-exp
    is ``logaddexp(st * a, st * b) / st`` with d/da = ``exp(st * (a - out))``,
    and softmax averages the operands with weights ``exp(st * (x - m))``,
    ``m`` their max (sign +1) or min (sign -1), with
    d/da = ``ea / (ea + eb) * (1 + st * (a - out))``.  A non-``Var``
    operand is a constant.
    """
    x, y = _array(a), _array(b)
    if isinstance(mode, Hard):
        first = x >= y if sign > 0 else x <= y
        return _binary(a, b, np.where(first, x, y), (first,), (~first,))
    if isinstance(mode, LogSumExp):
        st = sign * mode.temp
        data = np.logaddexp(st * x, st * y) / st
        wa = np.exp(st * (x - data))
        wb = np.exp(st * (y - data))
        return _binary(a, b, data, (wa,), (wb,))
    if isinstance(mode, SoftMax):
        st = sign * mode.temp
        m = np.maximum(x, y) if sign > 0 else np.minimum(x, y)
        ea = np.exp(st * (x - m))
        eb = np.exp(st * (y - m))
        den = ea + eb
        data = (x * ea + y * eb) / den
        return _binary(a, b, data, (ea / den, 1.0 + st * (x - data)),
                       (eb / den, 1.0 + st * (y - data)))
    raise TypeError(f"unsupported mode: {mode!r}")


def _accum_pair(a: Var, b: Var, ga: np.ndarray, gb: np.ndarray):
    _accum(a, _unbroadcast(ga, a.data.shape))
    _accum(b, _unbroadcast(gb, b.data.shape))


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


def _lse_cum_grad(g, y, run, tau: float, reverse: bool) -> np.ndarray:
    """d/dy of ``run``, the running log-sum-exp max of ``y``: window sums of
    ``exp(tau * (y_j - run_t))`` accumulated from the far end with ratios
    ``exp(tau * (run_j - run_{j - 1})) <= 1``, so neither they nor their
    products overflow."""
    if not reverse:
        g, y, run = (np.flip(v, axis=-1) for v in (g, y, run))
    ratio = np.exp(tau * np.diff(run, axis=-1, prepend=run[..., :1]))
    grad = np.exp(tau * (y - run)) * _linear_scan(ratio, g)
    return grad if reverse else np.flip(grad, axis=-1)


def _softmax_cum_grad(g, y, u, carry, tau: float) -> np.ndarray:
    """d/dy of ``u``, the softmax averages of ``y`` over the suffix windows
    ``y[..., t:]``, where ``u_t = carry_t u_{t+1} + (1 - carry_t) y_t``.

    ``d u_t / d y_j = w_tj (1 + tau (y_j - u_t))`` with ``w_tj = carry_t ...
    carry_{j-1} (1 - carry_j)``, so the gradient is ``(1 - carry_j) ((1 + tau
    (y_j - u_j)) A_j - tau B_j)`` with ``A_j = g_j + carry_{j-1} A_{j-1}``
    (the log-sum-exp vjp's recurrence) and ``B_j = carry_{j-1} (B_{j-1} +
    (u_{j-1} - u_j) A_{j-1})``: two doubling scans."""
    ratio = np.concatenate([np.zeros(carry.shape[:-1] + (1,)), carry[..., :-1]], axis=-1)
    acc = _linear_scan(ratio, g)
    step = np.zeros(acc.shape)
    step[..., 1:] = ratio[..., 1:] * (u[..., :-1] - u[..., 1:]) * acc[..., :-1]
    return (1.0 - carry) * ((1.0 + tau * (y - u)) * acc - tau * _linear_scan(ratio, step))


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
    a = as_var(a)
    flip = lambda v: np.flip(v, axis=-1)
    order = flip if reverse else (lambda v: v)  # native to scan order and back
    scan = lambda op, v: order(op.accumulate(order(v), axis=-1))

    # the closures hold the output array, not the node: a node referenced
    # from its own vjp would form a cycle that keeps its graph alive
    if isinstance(mode, Hard):
        data = scan(np.maximum if sign > 0 else np.minimum, a.data)
        def vjp(g):
            # the argmax scan runs only when a gradient is asked for
            sel = _first_extremum(sign * a.data, sign * data, reverse)
            _accum(a, _scatter_last(g, sel, a.data.shape))
    elif isinstance(mode, LogSumExp):
        tau = mode.temp
        data = sign * (scan(np.logaddexp, (sign * tau) * a.data) / tau)
        def vjp(g):
            _accum(a, _lse_cum_grad(g, sign * a.data, sign * data, tau, reverse))
    elif isinstance(mode, SoftMax):
        tau = mode.temp
        back = (lambda v: v) if reverse else flip  # native to suffix-window order
        # shifting by the detached row max keeps the scanned logs small
        shift = np.max(sign * a.data, axis=-1, keepdims=True)
        y = sign * a.data - shift
        z = tau * order(y)
        run = np.logaddexp.accumulate(z, axis=-1)
        gap = np.concatenate([np.full(shift.shape, -np.inf), run[..., :-1]], axis=-1) - z
        carry = smoothing.sigmoid(gap)
        u = _linear_scan(carry, smoothing.sigmoid(-gap) * order(y))
        data = sign * (order(u) + shift)
        def vjp(g):
            _accum(a, back(_softmax_cum_grad(back(g), back(y), flip(u), flip(carry), tau)))
    else:
        raise TypeError(f"unsupported mode: {mode!r}")
    out = Var(data, (a,))
    out._vjp = vjp
    return out


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
    a, b = as_var(left), as_var(right)
    x, y = np.broadcast_arrays(a.data, b.data)
    length = x.shape[-1]
    data = _clamp_scan(x, y)

    def vjp(g):
        nxt = np.concatenate([data[..., 1:], np.full(data.shape[:-1] + (1,), -np.inf)], axis=-1)
        take_l = x <= np.maximum(y, nxt)
        src = _next_true(take_l | (y >= nxt))
        # left sources land in [0, L), right sources in [L, 2L)
        src = src + length * ~np.take_along_axis(take_l, src, axis=-1)
        buf = _scatter_last(g, src, data.shape[:-1] + (2 * length,))
        _accum_pair(a, b, buf[..., :length], buf[..., length:])
    out = Var(data, (a, b))
    out._vjp = vjp
    return out


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
    a, b = as_var(left), as_var(right)
    tau = mode.temp
    x, y = np.broadcast_arrays(a.data, b.data)
    centre = _clamp_scan(x, y)
    length = x.shape[-1]

    def tile(t0, t1, off):
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

    s = np.empty(centre.shape)
    for t0, t1, off in _until_tiles(length):
        s[..., t0:t1] = tile(t0, t1, off)[2].sum(axis=-1)
    data = centre + np.log(s) / tau

    def vjp(g):
        g_s = np.broadcast_to(g / s, s.shape)
        grad_l, grad_r = np.zeros(s.shape), np.zeros(s.shape)
        for t0, t1, off in _until_tiles(length):
            big_a, big_f, q = tile(t0, t1, off)
            q *= q
            q *= g_s[..., t0:t1, None]
            big_f *= q
            grad_r[..., t0:] += big_f.sum(axis=-2)
            big_a *= np.flip(np.cumsum(np.flip(q, axis=-1), axis=-1), axis=-1)
            grad_l[..., t0:] += big_a.sum(axis=-2)
        _accum_pair(a, b, grad_l, grad_r)
    out = Var(data, (a, b))
    out._vjp = vjp
    return out
