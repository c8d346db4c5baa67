"""Recurrent (dynamic-programming) robustness traces, backward in time.

Each temporal node walks the child trace from the last timestep to the first
and keeps a hidden state: a single running value for untimed eventually and
always, or a sliding buffer of the most recent child values for windowed
operators: one loop each, which appends one sample and emits one entry per
step.  Until buffers both child traces and rebuilds its prefix reduction
every step; untimed until is the same loop over ``[0, L - 1]``, clipped at
the end.

In hard mode and log-sum-exp mode the results equal the reference semantics
(log-sum-exp flattens nested applications into a single one).  In softmax
mode the nested reductions are *not* equivalent to one flat application:
values entering the recurrence earlier (later in time) get softened on every
subsequent step, so untimed softmax traces intentionally drift away from the
masked engine, and so does timed until, whose prefix mins nest pairwise.
Timed eventually and always reduce each window once and agree.  New elements
always enter a pairwise reduction as the later operand.

Predicates, boolean connectives and the padding of starts whose window
overruns the end come from the shared formula walker,
:func:`stlmask.masking.walk`; this module supplies only the ``F``/``G`` and
``U`` kernels, which see only the starts whose window fits, so a windowed
loop begins at the last such start.  :func:`trace_recurrent` passes the
channel arrays, so it builds no graph.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from . import masking, tape
from .core import NamedSignals, SemanticsConfig, SmoothInterval, window_size
from .formula import Formula
from .tape import Var

__all__ = ["trace_recurrent", "trace_var_recurrent"]


def _reduce(values, sign: float, cfg: SemanticsConfig) -> Var | np.ndarray:
    values = list(values)
    if len(values) == 2:
        # a two-entry window is one pair node instead of stack + reduce
        pair = tape.pair_smooth_max if sign > 0 else tape.pair_smooth_min
        return pair(values[0], values[1], cfg.mode)
    return masking._reduce(tape.stack_last(values), sign, cfg)


def _ev_always_rec(child, iv, cfg: SemanticsConfig, sign: float, weights) -> Var | np.ndarray:
    if isinstance(iv, SmoothInterval):
        raise TypeError("the recurrent engine does not support smooth intervals")
    length = child.shape[-1]
    if iv is None:
        out: list = [None] * length
        pair = tape.pair_smooth_max if sign > 0 else tape.pair_smooth_min
        running = tape.index_last(child, length - 1)
        out[length - 1] = running
        for t in range(length - 2, -1, -1):
            running = pair(running, tape.index_last(child, t), cfg.mode)
            out[t] = running
        return tape.stack_last(out)
    # the windows [t + a, t + b] of the starts that fit, from the last one
    # back; the buffer starts as the last window but its first sample
    fits = length - iv.b
    state = deque((tape.index_last(child, i) for i in range(fits + iv.a, length)),
                  maxlen=window_size(iv))
    out = [None] * fits
    for t in range(fits - 1, -1, -1):
        state.appendleft(tape.index_last(child, t + iv.a))
        out[t] = _reduce(state, sign, cfg)
    return tape.stack_last(out)


def _until_rec(left, right, iv, cfg: SemanticsConfig) -> Var | np.ndarray:
    length = left.shape[-1]
    # looked up once: the loop below calls it for every timestep and offset
    pair_min, mode = tape.pair_smooth_min, cfg.mode
    # untimed until is the window [0, L - 1] clipped at the end; timed, only
    # the starts whose window fits
    a, b = (0, length - 1) if iv is None else (iv.a, iv.b)
    fits = length if iv is None else length - b
    # left at t .. t+b and right at t+a .. t+b, as for start t = fits
    phi = deque((tape.index_last(left, i) for i in range(fits, length)), maxlen=b + 1)
    psi = deque((tape.index_last(right, i) for i in range(fits + a, length)), maxlen=b - a + 1)
    out = [None] * fits
    for t in range(fits - 1, -1, -1):
        phi.appendleft(tape.index_last(left, t))
        psi.appendleft(tape.index_last(right, t + a))
        terms = []
        psi_iter = iter(psi)
        # iterate rather than index: deque access by position is O(i)
        for i, phi_i in enumerate(phi):
            pm = phi_i if i == 0 else pair_min(pm, phi_i, mode)
            if i >= a:
                terms.append(pair_min(pm, next(psi_iter), mode))
        out[t] = _reduce(terms, 1.0, cfg) if len(terms) > 1 else terms[0]
    return tape.stack_last(out)


def trace_var_recurrent(f: Formula, channels: dict[str, Var], length: int,
                        cfg: SemanticsConfig) -> Var | np.ndarray:
    """Recurrent robustness trace on the tape; shape ``(..., length)``.  A
    trace that reaches no :class:`Var` is a plain array."""
    return masking.walk(f, channels, length, cfg, _ev_always_rec, _until_rec)


def trace_recurrent(f: Formula, signals: NamedSignals,
                    cfg: SemanticsConfig = SemanticsConfig()) -> np.ndarray:
    """Robustness trace computed by the backward recurrences."""
    channels = masking._checked_channels(f, signals)
    out = masking.walk(f, channels, signals.length, cfg, _ev_always_rec, _until_rec)
    return np.array(out, copy=True)
