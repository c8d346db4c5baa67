"""Simultaneous robustness-trace computation via masked window reductions.

Every trace entry is computed at once: the child trace is gathered so that
row ``t`` holds the window of the subsignal starting at ``t``, and a single
min/max (or smooth) reduction collapses each row.  Timed until gathers the
left and right windows of every start index at once, takes the left prefix
mins across window offsets, pairs each with the right value at that offset,
and max-reduces across offsets.  Untimed until gathers the ``(L, L)``
square of windows in softmax mode only (clipped at the signal end):

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
gathers them with ``tape.take_last`` instead of materializing mask products;
the tests check it against reductions over the materialized masks built in
``tests/helpers.py``.  Running reductions are one ``tape.cum_reduce`` node in
every mode (a scan, exact for hard, equal by associativity for log-sum-exp,
and a convex recurrence of the window's own softmax average for softmax):

* untimed eventually/always are suffix scans of the child trace,
* until's left prefix mins are one prefix scan along the gathered window
  axis, so an until node has the same number of tape nodes at any length.

Padding rule: a trace entry whose window overruns the signal end is the
padding-derived constant (for until, the hard min of the two child padding
values) — past the end only the assumed padding region is visible, and every
operator reduces a constant region to that constant.  Timed operators
therefore gather only the ``L - b`` starts whose window fits, from the real
samples, and append that constant for the rest.  Untimed windows clip at the
end instead.
"""

from __future__ import annotations

import numpy as np

from . import tape
from .core import (
    EmptyWindowError,
    Hard,
    LogSumExp,
    NamedSignals,
    SemanticsConfig,
    ShapeError,
    SmoothInterval,
    StepInterval,
    ValidationError,
    window_size,
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
from .smoothing import smooth_mask_weights
from .tape import Var

__all__ = [
    "eventually_trace",
    "always_trace",
    "until_trace",
    "robustness_trace",
    "robustness",
    "trace_var",
    "walk",
    "pad_value",
    "smooth_weights_var",
]

# ---------------------------------------------------------------------------
# Window helpers on tape variables (reductions run along the last axis)
# ---------------------------------------------------------------------------

def _padding(x: Var, count: int, length: int, cfg: SemanticsConfig):
    """``count`` copies of the value assumed past the end of ``x``: a gather
    of its last sample, or the padding constant as an array (no node)."""
    if cfg.padding.kind == "last" and count:
        return tape.take_last(x, np.full(count, length - 1, dtype=np.intp))
    return np.full(x.data.shape[:-1] + (count,), cfg.padding.value)


def _pad_var(x: Var, count: int, length: int, cfg: SemanticsConfig) -> Var:
    return x if count == 0 else tape.concat_last([x, _padding(x, count, length, cfg)])


def _reduce(x, kind: str, cfg: SemanticsConfig, weights=None) -> Var:
    if kind == "max":
        return tape.smooth_max(x, cfg.mode, weights)
    return tape.smooth_min(x, cfg.mode, weights)


def pad_value(child: Var, length: int, cfg: SemanticsConfig) -> Var:
    """The value assumed past the end of ``child``; shape ``child.shape[:-1]``."""
    if cfg.padding.kind == "last":
        return tape.index_last(child, length - 1)
    return Var(np.full(child.data.shape[:-1], cfg.padding.value))


def _then_padding(fit: Var | None, tail) -> Var:
    """``fit`` for the starts whose window ends inside the signal, then
    ``tail``: later windows read only padding, which reduces to itself."""
    if fit is None:
        return tape.as_var(tail)
    return fit if tail.shape[-1] == 0 else tape.concat_last([fit, tail])


def _ev_always_var(child: Var, length: int, iv, cfg: SemanticsConfig, kind: str,
                   smooth_weights=None) -> Var:
    if isinstance(iv, SmoothInterval):
        padded = _pad_var(child, length - 1, length, cfg)
        idx = np.arange(length)[:, None] + np.arange(length)[None, :]
        win = tape.take_last(padded, idx)
        w = smooth_weights if smooth_weights is not None else smooth_mask_weights(iv, length)
        w_data = w.data if isinstance(w, Var) else w
        if not np.any(w_data > 0):
            raise EmptyWindowError("smooth interval produced an all-zero weight vector")
        return _reduce(win, kind, cfg, weights=w)
    if iv is None:
        return tape.cum_reduce(child, cfg.mode, 1.0 if kind == "max" else -1.0, reverse=True)
    fits = max(length - iv.b, 0)
    idx = np.arange(fits)[:, None] + iv.a + np.arange(window_size(iv))[None, :]
    fit = _reduce(tape.take_last(child, idx), kind, cfg) if fits else None
    return _then_padding(fit, _padding(child, length - fits, length, cfg))


def _gathered_until(left: Var, right: Var, idx: np.ndarray, a: int, mode, weights=None) -> Var:
    """Until over the windows whose sample positions are the rows of ``idx``:
    one scan of left prefix mins per row, each paired with the right value
    from column ``a`` on, then a max over the pairs kept by ``weights``."""
    pm = tape.cum_reduce(tape.take_last(left, idx), mode, -1.0)
    if a > 0:
        pm = tape.take_last(pm, np.arange(a, idx.shape[-1]))
    stacked = tape.pair_smooth_min(pm, tape.take_last(right, idx[:, a:]), mode)
    return tape.smooth_max(stacked, mode, weights)


def _until_var(left: Var, right: Var, length: int, iv, cfg: SemanticsConfig) -> Var:
    if isinstance(iv, SmoothInterval):
        raise TypeError("until does not support smooth intervals")
    if iv is None:
        if isinstance(cfg.mode, Hard):
            return tape.hard_until(left, right)
        if isinstance(cfg.mode, LogSumExp):
            return tape.lse_until(left, right, cfg.mode)
        # every start's window, clipped at the end and masked out past it
        ends = np.arange(length)[:, None] + np.arange(length)[None, :]
        return _gathered_until(left, right, np.minimum(ends, length - 1), 0, cfg.mode,
                               (ends < length).astype(np.float64))
    fits = max(length - iv.b, 0)
    idx = np.arange(fits)[:, None] + np.arange(iv.b + 1)[None, :]
    fit = _gathered_until(left, right, idx, iv.a, cfg.mode) if fits else None
    tail = [_padding(x, length - fits, length, cfg) for x in (left, right)]
    return _then_padding(fit, tape.pair_smooth_min(*tail, Hard()))


# ---------------------------------------------------------------------------
# Formula evaluation
# ---------------------------------------------------------------------------

def smooth_weights_var(a, b, c, eps: float, length: int) -> Var:
    """Differentiable window weights from (possibly taped) interval params:
    ``relu(sigmoid(c*(i - a*L)) - sigmoid(c*(i - b*L)) - eps)``.

    Past the window's midpoint both sigmoid arguments are negated and the
    difference negated back (``sigmoid(-z) = 1 - sigmoid(z)``), so no weight
    is the difference of two values near 1 (see
    ``smoothing.smooth_time_mask``)."""
    a, b = tape.as_var(a), tape.as_var(b)
    i = np.arange(length, dtype=np.float64)
    flip = np.where(np.arange(length) > (a.data + b.data) * (0.5 * length), -1.0, 1.0)
    lo = tape.sigmoid((i - a * float(length)) * (c * flip))
    hi = tape.sigmoid((i - b * float(length)) * (c * flip))
    return tape.relu((lo - hi) * flip - eps)


def walk(f: Formula, channels: dict[str, Var], length: int, cfg: SemanticsConfig,
         ev_always, until, smooth_binding=None) -> Var:
    """Robustness trace of ``f`` on the tape, given an engine's temporal kernels.

    ``ev_always(child, length, interval, cfg, kind, smooth_weights)`` with
    ``kind`` ``"max"`` (``F``) or ``"min"`` (``G``); ``until(left, right,
    length, interval, cfg)``.  Recursion stays inside this function, so a
    wrapper around an engine's entry point sees one call per trace.
    """
    def rec(g: Formula) -> Var:
        return walk(g, channels, length, cfg, ev_always, until, smooth_binding)

    if isinstance(f, TrueFormula):
        batch = next(iter(channels.values())).data.shape[:-1] if channels else ()
        return Var(np.full(batch + (length,), cfg.top_value))
    if isinstance(f, Pred):
        x = channels[f.var]
        if f.cmp in (">", ">="):
            return x - f.threshold
        return tape.neg(x) + f.threshold
    if isinstance(f, Not):
        return tape.neg(rec(f.arg))
    if isinstance(f, And):
        return tape.pair_smooth_min(rec(f.left), rec(f.right), cfg.mode)
    if isinstance(f, Or):
        return tape.pair_smooth_max(rec(f.left), rec(f.right), cfg.mode)
    if isinstance(f, (Eventually, Always)):
        child = rec(f.arg)
        weights = None
        if isinstance(f.interval, SmoothInterval) and smooth_binding is not None:
            a, b, c = smooth_binding
            weights = smooth_weights_var(a, b, c, f.interval.eps, length)
        kind = "max" if isinstance(f, Eventually) else "min"
        return ev_always(child, length, f.interval, cfg, kind, weights)
    if isinstance(f, Until):
        return until(rec(f.left), rec(f.right), length, f.interval, cfg)
    raise TypeError(f"not a Formula node: {f!r}")


def trace_var(f: Formula, channels: dict[str, Var], length: int, cfg: SemanticsConfig,
              smooth_binding=None) -> Var:
    """Masked robustness trace as a tape variable; shape ``(..., length)``.

    ``channels`` may carry leading batch axes.  ``smooth_binding``, when
    given, is an ``(a, b, c)`` triple (floats or :class:`Var`) substituted for
    the parameters of every smooth-interval node in ``f``.
    """
    return walk(f, channels, length, cfg, _ev_always_var, _until_var, smooth_binding)


def _channel_vars(signals: NamedSignals) -> dict[str, Var]:
    return {name: Var(signals[name].values) for name in signals.names()}


def robustness_trace(f: Formula, signals: NamedSignals,
                     cfg: SemanticsConfig = SemanticsConfig()) -> np.ndarray:
    """Robustness of every suffix subsignal, computed by masked reductions."""
    missing = validate_against(f, signals)
    if missing:
        raise ValidationError(missing)
    out = trace_var(f, _channel_vars(signals), signals.length, cfg)
    return np.array(out.data, copy=True)


def robustness(f: Formula, signals: NamedSignals,
               cfg: SemanticsConfig = SemanticsConfig()) -> float:
    """Robustness of the whole signal: entry 0 of the trace."""
    return float(robustness_trace(f, signals, cfg)[0])


# ---------------------------------------------------------------------------
# Trace-level operations (ndarray in / ndarray out)
# ---------------------------------------------------------------------------

def _as_trace(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ShapeError(f"{name} trace must be non-empty")
    return arr


def eventually_trace(inner, iv: StepInterval | SmoothInterval | None,
                     cfg: SemanticsConfig = SemanticsConfig()) -> np.ndarray:
    """Windowed max over the inner trace, one entry per start timestep."""
    arr = _as_trace(inner, "inner")
    out = _ev_always_var(Var(arr), arr.size, iv, cfg, "max")
    return np.array(out.data, copy=True)


def always_trace(inner, iv: StepInterval | SmoothInterval | None,
                 cfg: SemanticsConfig = SemanticsConfig()) -> np.ndarray:
    """Windowed min over the inner trace, one entry per start timestep."""
    arr = _as_trace(inner, "inner")
    out = _ev_always_var(Var(arr), arr.size, iv, cfg, "min")
    return np.array(out.data, copy=True)


def until_trace(left, right, iv: StepInterval | None,
                cfg: SemanticsConfig = SemanticsConfig()) -> np.ndarray:
    """Until combination of two child traces."""
    l_arr = _as_trace(left, "left")
    r_arr = _as_trace(right, "right")
    if l_arr.size != r_arr.size:
        raise ShapeError(f"trace lengths differ: {l_arr.size} vs {r_arr.size}")
    out = _until_var(Var(l_arr), Var(r_arr), l_arr.size, iv, cfg)
    return np.array(out.data, copy=True)
