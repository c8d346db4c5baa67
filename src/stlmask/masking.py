"""Simultaneous robustness-trace computation via masked window reductions.

Every trace entry is computed at once.  Timed eventually/always in hard and
log-sum-exp mode use binary lifting: spans of 1, 2, 4, ... samples, each
one ``tape.pair_smooth_max``/``pair_smooth_min`` of two shifted halves, are
combined over the set bits of the window width, so the cost is O(L log w)
and no ``(L, w)`` window array exists.  In softmax mode, whose pairwise
average is not associative, and over smooth intervals the child trace is
gathered so that row ``t`` holds the window of the subsignal starting at
``t``, and a single smooth reduction collapses each row.  Timed until
gathers the left and right windows of every start index at once, takes the
left prefix mins across window offsets, pairs each with the right value at
that offset, and max-reduces across offsets.  Untimed until gathers the
``(L, L)`` square of windows in softmax mode only (clipped at the signal
end):

* in hard mode it is one ``tape.hard_until`` node, a log-depth scan of the
  clamps ``u -> min(l_t, max(r_t, u))`` in O(L) memory with exact values;
* in log-sum-exp mode it is one ``tape.lse_until`` node, which sums the
  windows in the exp domain centred on that hard until, one tile of start
  rows at a time, keeps only O(L) arrays and recomputes the tiles in its
  vjp.

The dispatch over formula nodes is :func:`walk`, shared with the recurrent
engine: the two tape engines differ only in the ``F``/``G`` and ``U`` kernels
they pass in.  Boolean connectives and until's pairings are one
``tape.pair_smooth_min``/``pair_smooth_max`` node each.

Windows are reduced over their kept entries only.  The implementation
lifts or gathers them (``tape.take_last``) instead of materializing mask
products; the tests check it against reductions over the materialized masks
built in ``tests/helpers.py``.  Running reductions are one
``tape.cum_reduce`` node in every mode (a scan, exact for hard, equal by
associativity for log-sum-exp, and a convex recurrence of the window's own
softmax average for softmax):

* untimed eventually/always are suffix scans of the child trace,
* until's left prefix mins are one prefix scan along the gathered window
  axis, so an until node has the same number of tape nodes at any length.

Padding rule, applied by :func:`walk` alone for both tape engines: a start
whose window ``[t + a, t + b]`` overruns the signal end takes the
padding-derived constant (for until, the hard min of the two child padding
values) — past the end only the assumed padding region is visible, and
every operator reduces a constant region to that constant.  So ``walk``
asks a kernel only for the ``L - b`` starts whose window fits, which it
reduces from the real samples, and appends that constant for the rest.  A
smooth interval's windows of ``L`` samples read the ``L - 1`` padding
samples that ``walk`` appends to the child; untimed windows clip at the end.

Constants stay plain arrays, as the tape returns them: ``TRUE``, constant
padding, padding-only tails and whatever is built from them alone, so
``backward`` sends them nothing.  The evaluation entry points pass the
channels as arrays, so the same kernels build no graph at all.
Smooth-interval weights are :func:`smooth_weights_var` of the node's own
interval, taped where its bounds are :class:`Var`.
"""

from __future__ import annotations

import numpy as np

from . import tape
from .core import (
    Hard,
    LogSumExp,
    NamedSignals,
    SemanticsConfig,
    ShapeError,
    SmoothInterval,
    SoftMax,
    StepInterval,
    ValidationError,
)
from .formula import (
    Always,
    And,
    Eventually,
    Formula,
    Not,
    Or,
    Pred,
    TrueFormula,
    Until,
    validate_against,
)
from .tape import Var

__all__ = [
    "eventually_trace",
    "always_trace",
    "until_trace",
    "robustness_trace",
    "robustness",
    "trace_var",
    "walk",
    "smooth_weights_var",
]

# ---------------------------------------------------------------------------
# Window kernels on tape variables (reductions run along the last axis)
# ---------------------------------------------------------------------------

def _padding(x, count: int, cfg: SemanticsConfig):
    """``count`` copies of the value assumed past the end of ``x``: a gather
    of its last sample, or the padding constant as an array (no node)."""
    if cfg.padding.kind == "last" and count:
        return tape.take_last(x, np.full(count, x.shape[-1] - 1, dtype=np.intp))
    return np.full(x.shape[:-1] + (count,), cfg.padding.value)


def _then_padding(fit, tail):
    """``fit`` for the starts whose window ends inside the signal, then
    ``tail``: later windows read only padding, which reduces to itself."""
    if fit is None:
        return tail
    return fit if tail.shape[-1] == 0 else tape.concat_last([fit, tail])


def _reduce(x, sign: float, cfg: SemanticsConfig, weights=None) -> Var | np.ndarray:
    if sign > 0:
        return tape.smooth_max(x, cfg.mode, weights)
    return tape.smooth_min(x, cfg.mode, weights)


def _ev_always_var(child, iv, cfg: SemanticsConfig, sign: float, weights) -> Var | np.ndarray:
    """``F`` (``sign`` +1) or ``G`` (-1) over every window that fits in
    ``child``: a suffix scan when untimed, binary lifting over a timed
    window in hard and log-sum-exp mode, else one reduction of the gathered
    windows."""
    if iv is None:
        return tape.cum_reduce(child, cfg.mode, sign, reverse=True)
    if isinstance(iv, SmoothInterval):
        offsets = np.arange(weights.shape[-1])
    elif isinstance(cfg.mode, SoftMax):
        offsets = np.arange(iv.a, iv.b + 1)
    else:
        return _lifted_windows(child, iv.a, iv.b - iv.a + 1, cfg.mode, sign)
    starts = np.arange(child.shape[-1] - offsets[-1])
    return _reduce(tape.take_last(child, starts[:, None] + offsets), sign, cfg, weights)


def _lifted_windows(child, a: int, width: int, mode, sign: float) -> Var | np.ndarray:
    """The windows ``[t + a, t + a + width)`` of every start that fits, by
    binary lifting: ``span[t]`` reduces ``child[t : t + k]`` for k = 1, 2,
    4, ..., each span one pair node of two halves, and the spans of the set
    bits of ``width`` are paired left to right from offset ``a`` without
    overlap (log-sum-exp is associative but not idempotent).  Pair ties go
    to the first, earlier operand, so hard values and subgradients are
    those of one reduction over the window."""
    pair = tape.pair_smooth_max if sign > 0 else tape.pair_smooth_min
    starts = child.shape[-1] - a - width + 1
    span, k, lo, out = child, 1, a, None
    while True:
        if width & k:
            piece = tape.index_last(span, slice(lo, lo + starts))
            out = piece if out is None else pair(out, piece, mode)
            lo += k
        if 2 * k > width:
            return out
        span = pair(tape.index_last(span, slice(None, -k)), tape.index_last(span, slice(k, None)), mode)
        k *= 2


def _gathered_until(left, right, idx: np.ndarray, a: int, mode, weights=None) -> Var | np.ndarray:
    """Until over the windows whose sample positions are the rows of ``idx``:
    one scan of left prefix mins per row, each paired with the right value
    from column ``a`` on, then a max over the pairs kept by ``weights``."""
    pm = tape.cum_reduce(tape.take_last(left, idx), mode, -1.0)
    if a > 0:
        pm = tape.take_last(pm, np.arange(a, idx.shape[-1]))
    stacked = tape.pair_smooth_min(pm, tape.take_last(right, idx[:, a:]), mode)
    return tape.smooth_max(stacked, mode, weights)


def _until_var(left, right, iv, cfg: SemanticsConfig) -> Var | np.ndarray:
    """``U`` over every window ``[t, t + b]`` that fits, or over every
    start's window clipped at the end when untimed."""
    length = left.shape[-1]
    if iv is not None:
        idx = np.arange(length - iv.b)[:, None] + np.arange(iv.b + 1)[None, :]
        return _gathered_until(left, right, idx, iv.a, cfg.mode)
    if isinstance(cfg.mode, Hard):
        return tape.hard_until(left, right)
    if isinstance(cfg.mode, LogSumExp):
        return tape.lse_until(left, right, cfg.mode)
    # every start's window, clipped at the end and masked out past it
    ends = np.arange(length)[:, None] + np.arange(length)[None, :]
    return _gathered_until(left, right, np.minimum(ends, length - 1), 0, cfg.mode,
                           (ends < length).astype(np.float64))


# ---------------------------------------------------------------------------
# Formula evaluation
# ---------------------------------------------------------------------------

def smooth_weights_var(iv: SmoothInterval, length: int):
    """Window weights of ``iv``, whose ``a``, ``b``, ``c`` are floats or
    :class:`Var`: ``relu(sigmoid(c*(i - a*L)) - sigmoid(c*(i - b*L)) - eps)``,
    a plain array when no bound is taped.

    Past the window's midpoint both sigmoid arguments are negated and the
    difference negated back (``sigmoid(-z) = 1 - sigmoid(z)``), so no weight
    is the difference of two values near 1 (see
    ``smoothing.smooth_time_mask``)."""
    a_data, b_data = (v.data if isinstance(v, Var) else v for v in (iv.a, iv.b))
    i = np.arange(length, dtype=np.float64)
    # smooth_time_mask's midpoint: float bounds give its weights bit for bit
    flip = np.where(np.arange(length) > 0.5 * (a_data * length + b_data * length), -1.0, 1.0)
    lo = tape.sigmoid((i - iv.a * float(length)) * (iv.c * flip))
    hi = tape.sigmoid((i - iv.b * float(length)) * (iv.c * flip))
    return tape.relu((lo - hi) * flip - iv.eps)


def walk(f: Formula, channels: dict[str, Var], length: int, cfg: SemanticsConfig,
         ev_always, until) -> Var | np.ndarray:
    """Robustness trace of ``f`` given an engine's temporal kernels: a
    :class:`Var` where it reaches one, else a plain array.

    This function applies the padding rule, so a kernel reduces only the
    windows that fit in the trace it is given: the first ``L - b`` starts
    over ``[a, b]``, called only if there are any, and over a smooth interval
    the ``L`` windows of the padded child under :func:`smooth_weights_var`
    of the node's interval.  ``ev_always(child, interval, cfg, sign,
    weights)`` with ``sign`` +1 for ``F`` and -1 for ``G``, as in
    :mod:`stlmask.tape`; ``until(left, right, interval, cfg)``.  Recursion
    stays inside this function, so a wrapper around an engine's entry point
    sees one call per trace.
    """
    def rec(g: Formula):
        return walk(g, channels, length, cfg, ev_always, until)

    if isinstance(f, TrueFormula):
        batch = next(iter(channels.values())).shape[:-1] if channels else ()
        return np.full(batch + (length,), cfg.top_value)
    if isinstance(f, Pred):
        x = channels[f.var]
        if f.cmp in (">", ">="):
            return x - f.threshold
        return f.threshold - x
    if isinstance(f, Not):
        return tape.neg(rec(f.arg))
    if isinstance(f, And):
        return tape.pair_smooth_min(rec(f.left), rec(f.right), cfg.mode)
    if isinstance(f, Or):
        return tape.pair_smooth_max(rec(f.left), rec(f.right), cfg.mode)
    if isinstance(f, (Eventually, Always)):
        child, iv = rec(f.arg), f.interval
        sign = 1.0 if isinstance(f, Eventually) else -1.0
        if iv is None:
            return ev_always(child, iv, cfg, sign, None)
        if isinstance(iv, SmoothInterval):
            padded = _then_padding(child, _padding(child, length - 1, cfg))
            return ev_always(padded, iv, cfg, sign, smooth_weights_var(iv, length))
        fits = max(length - iv.b, 0)
        fit = ev_always(child, iv, cfg, sign, None) if fits else None
        return _then_padding(fit, _padding(child, length - fits, cfg))
    if isinstance(f, Until):
        left, right, iv = rec(f.left), rec(f.right), f.interval
        if iv is None:
            return until(left, right, iv, cfg)
        fits = max(length - iv.b, 0)
        fit = until(left, right, iv, cfg) if fits else None
        tails = [_padding(x, length - fits, cfg) for x in (left, right)]
        return _then_padding(fit, tape.pair_smooth_min(*tails, Hard()))
    raise TypeError(f"not a Formula node: {f!r}")


def trace_var(f: Formula, channels: dict[str, Var], length: int,
              cfg: SemanticsConfig) -> Var | np.ndarray:
    """Masked robustness trace on the tape; shape ``(..., length)``.  A trace
    that reaches no :class:`Var` is a plain array.

    ``channels`` may carry leading batch axes.  Smooth-interval bounds that
    are :class:`Var` carry the gradient to the interval.
    """
    return walk(f, channels, length, cfg, _ev_always_var, _until_var)


def _checked_channels(f: Formula, signals: NamedSignals) -> dict[str, np.ndarray]:
    """The channel arrays of ``signals``, once ``f`` is checked against them."""
    missing = validate_against(f, signals)
    if missing:
        raise ValidationError(missing)
    return {name: signals[name].values for name in signals.names()}


def _evaluate(f: Formula, arrays: dict[str, np.ndarray], length: int,
              cfg: SemanticsConfig) -> np.ndarray:
    """The float64 trace of ``f`` on channel arrays; smooth-interval bounds
    that are :class:`Var` count by their values."""
    out = walk(f, arrays, length, cfg, _ev_always_var, _until_var)
    return np.array(out.data if isinstance(out, Var) else out, copy=True)


def robustness_trace(f: Formula, signals: NamedSignals,
                     cfg: SemanticsConfig = SemanticsConfig()) -> np.ndarray:
    """Robustness of every suffix subsignal, computed by masked reductions."""
    return _evaluate(f, _checked_channels(f, signals), signals.length, cfg)


def robustness(f: Formula, signals: NamedSignals,
               cfg: SemanticsConfig = SemanticsConfig()) -> float:
    """Robustness of the whole signal: entry 0 of the trace."""
    return float(robustness_trace(f, signals, cfg)[0])


# ---------------------------------------------------------------------------
# Trace-level operations (ndarray in / ndarray out)
# ---------------------------------------------------------------------------

def _as_trace(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim > 1:
        raise ShapeError(f"{name} trace must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"{name} trace must be non-empty")
    return arr.reshape(-1)


def _trace_op(node, iv, cfg: SemanticsConfig, **traces) -> np.ndarray:
    """``node`` over ``iv`` on the given traces through :func:`walk`, each
    read by a predicate ``name > 0`` (``x - 0.0 == x`` exactly)."""
    arrays = {name: _as_trace(v, name) for name, v in traces.items()}
    sizes = [arr.size for arr in arrays.values()]
    if len(set(sizes)) > 1:
        raise ShapeError(f"trace lengths differ: {' vs '.join(map(str, sizes))}")
    f = node(*(Pred(name, ">", 0.0) for name in arrays), iv)
    return _evaluate(f, arrays, sizes[0], cfg)


def eventually_trace(inner, iv: StepInterval | SmoothInterval | None,
                     cfg: SemanticsConfig = SemanticsConfig()) -> np.ndarray:
    """Windowed max over the inner trace, one entry per start timestep."""
    return _trace_op(Eventually, iv, cfg, inner=inner)


def always_trace(inner, iv: StepInterval | SmoothInterval | None,
                 cfg: SemanticsConfig = SemanticsConfig()) -> np.ndarray:
    """Windowed min over the inner trace, one entry per start timestep."""
    return _trace_op(Always, iv, cfg, inner=inner)


def until_trace(left, right, iv: StepInterval | None,
                cfg: SemanticsConfig = SemanticsConfig()) -> np.ndarray:
    """Until combination of two child traces."""
    return _trace_op(Until, iv, cfg, left=left, right=right)
