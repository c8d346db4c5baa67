"""Simultaneous robustness-trace computation via masked window reductions.

Every trace entry is computed at once: the child trace is padded, unrolled so
that column ``t`` holds the subsignal starting at ``t``, and a boolean mask
selects the window entries, which a single min/max (or smooth) reduction then
collapses column-wise.  Timed until gathers the left and right windows of
every start index at once, takes the left prefix mins across window offsets,
pairs each with the right value at that offset, and max-reduces across
offsets.  Untimed until avoids the ``(L, L)`` square of windows:

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
hard and log-sum-exp mode, exact for hard and equal by associativity of
log-sum-exp:

* untimed eventually/always are suffix scans of the child trace,
* until's left prefix mins are one prefix scan along the gathered window
  axis, so an until node has the same number of tape nodes at any length.

Softmax mode has no such identity, so it always reduces each window in a
single application, and until stacks one window reduction per offset over
the square gather.

Padding rule: a trace entry whose window overruns the signal end is replaced
by the padding-derived constant (for until, the hard min of the two child
padding values) — past the end only the assumed padding region is visible,
and every operator reduces a constant region to that constant.  Windows that
fit reduce over real samples only; untimed windows clip at the end instead.
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
    SoftMax,
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

def _pad_var(x: Var, count: int, length: int, cfg: SemanticsConfig) -> Var:
    if count == 0:
        return x
    if cfg.padding.kind == "last":
        return tape.concat_last([x, tape.take_last(x, np.full(count, length - 1, dtype=np.intp))])
    fill = np.full(x.data.shape[:-1] + (count,), cfg.padding.value)
    return tape.concat_last([x, fill])


def _reduce(x, kind: str, cfg: SemanticsConfig, weights=None) -> Var:
    if kind == "max":
        return tape.smooth_max(x, cfg.mode, weights)
    return tape.smooth_min(x, cfg.mode, weights)


def pad_value(child: Var, length: int, cfg: SemanticsConfig) -> Var:
    """The value assumed past the end of ``child``; shape ``child.shape[:-1]``."""
    if cfg.padding.kind == "last":
        return tape.index_last(child, length - 1)
    return Var(np.full(child.data.shape[:-1], cfg.padding.value))


def _replace_overrun(out: Var, length: int, upper: int, pad_value: Var) -> Var:
    """Overwrite entries whose window overruns the signal end by ``pad_value``.

    Entry t is valid iff ``t + upper <= length - 1``; the rest read only the
    assumed padding region, whose reduction is the padding value itself.
    """
    if upper == 0:
        return out
    keep = np.arange(length) < length - upper
    replacement = tape.mul(tape.unsqueeze_last(pad_value), np.ones(length))
    if not keep.any():
        return replacement
    return tape.mask_fill(out, keep, 0.0) + tape.mask_fill(replacement, ~keep, 0.0)


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
        if isinstance(cfg.mode, SoftMax):
            pos = np.arange(length)[:, None] + np.arange(length)[None, :]
            keep = pos <= length - 1
            win = tape.take_last(child, np.minimum(pos, length - 1))
            return _reduce(win, kind, cfg, weights=keep.astype(np.float64))
        return tape.cum_reduce(child, cfg.mode, 1.0 if kind == "max" else -1.0, reverse=True)

    padded = _pad_var(child, iv.b, length, cfg)
    idx = np.arange(length)[:, None] + iv.a + np.arange(window_size(iv))[None, :]
    out = _reduce(tape.take_last(padded, idx), kind, cfg)
    return _replace_overrun(out, length, iv.b, pad_value(child, length, cfg))


def _until_var(left: Var, right: Var, length: int, iv, cfg: SemanticsConfig) -> Var:
    if isinstance(iv, SmoothInterval):
        raise TypeError("until does not support smooth intervals")
    if iv is None:
        if isinstance(cfg.mode, Hard):
            return tape.hard_until(left, right)
        if isinstance(cfg.mode, LogSumExp):
            return tape.lse_until(left, right, cfg.mode)
        a, count = 0, length
        outer_keep = (np.arange(length)[:, None] + np.arange(count)[None, :]) <= length - 1
        lp, rp = left, right
    else:
        a, count = iv.a, window_size(iv)
        outer_keep = None
        lp = _pad_var(left, iv.b, length, cfg)
        rp = _pad_var(right, iv.b, length, cfg)

    t = np.arange(length)
    last = lp.data.shape[-1] - 1

    # column j of row t holds sample t + j of the left window; the prefix
    # min up to column a + k is the left reduction of window offset k
    idx = np.minimum(t[:, None] + np.arange(a + count)[None, :], last)
    if isinstance(cfg.mode, SoftMax):
        pm = tape.stack_last([_reduce(tape.take_last(lp, idx[:, :a + k + 1]), "min", cfg)
                              for k in range(count)])
    else:
        pm = tape.cum_reduce(tape.take_last(lp, idx), cfg.mode, -1.0)
        if a > 0:
            pm = tape.take_last(pm, np.arange(a, a + count))
    stacked = tape.pair_smooth_min(pm, tape.take_last(rp, idx[:, a:]), cfg.mode)
    weights = outer_keep.astype(np.float64) if outer_keep is not None else None
    out = _reduce(stacked, "max", cfg, weights=weights)
    if iv is None:
        return out
    pad = tape.pair_smooth_min(pad_value(left, length, cfg), pad_value(right, length, cfg), Hard())
    return _replace_overrun(out, length, iv.b, pad)


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
