"""Recurrent (dynamic-programming) robustness traces, backward in time.

Each temporal node walks the child trace from the last timestep to the first
and keeps a hidden state: a single running value for untimed eventually and
always, or a sliding buffer of the most recent child values for windowed
operators: one loop each, which appends one sample per step and emits the
padding value while the window ``[t + a, t + b]`` overruns the end.  Until
buffers both child traces and rebuilds its prefix reduction every step;
untimed until is the same loop over ``[0, L - 1]``, clipped, not padded.

In hard mode and log-sum-exp mode the results equal the reference semantics
(log-sum-exp flattens nested applications into a single one).  In softmax
mode the nested reductions are *not* equivalent to one flat application:
values entering the recurrence earlier (later in time) get softened on every
subsequent step, so untimed softmax traces intentionally drift away from the
masked engine.  New elements always enter a pairwise reduction as the later
operand.

Predicates and boolean connectives come from the shared formula walker,
:func:`stlmask.masking.walk`; this module supplies only the ``F``/``G`` and
``U`` kernels.  :func:`trace_recurrent` passes the channel arrays, so it
builds no graph.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from . import masking, tape
from .core import Hard, NamedSignals, SemanticsConfig, SmoothInterval, window_size
from .formula import Formula
from .tape import Var

__all__ = ["trace_recurrent", "trace_var_recurrent"]


def _reduce(values, kind: str, cfg: SemanticsConfig) -> Var:
    values = list(values)
    if len(values) == 2:
        # a two-entry window is one pair node instead of stack + reduce
        pair = tape.pair_smooth_max if kind == "max" else tape.pair_smooth_min
        return pair(values[0], values[1], cfg.mode)
    stacked = tape.stack_last(values)
    if kind == "max":
        return tape.smooth_max(stacked, cfg.mode)
    return tape.smooth_min(stacked, cfg.mode)


def _ev_always_rec(child: Var, length: int, iv, cfg: SemanticsConfig, kind: str,
                   smooth_weights=None) -> Var:
    if isinstance(iv, SmoothInterval):
        raise TypeError("the recurrent engine does not support smooth intervals")
    out: list = [None] * length
    if iv is None:
        pair = tape.pair_smooth_max if kind == "max" else tape.pair_smooth_min
        running = tape.index_last(child, length - 1)
        out[length - 1] = running
        for t in range(length - 2, -1, -1):
            running = pair(running, tape.index_last(child, t), cfg.mode)
            out[t] = running
        return tape.stack_last(out)
    # entries whose window overruns the end take the padding value; the
    # buffer holds the real samples at t+a .. t+b
    pad = masking.pad_value(child, length, cfg)
    state = deque(maxlen=window_size(iv))
    for t in range(length - 1, -1, -1):
        if t + iv.a < length:
            state.appendleft(tape.index_last(child, t + iv.a))
        out[t] = pad if t + iv.b >= length else _reduce(state, kind, cfg)
    return tape.stack_last(out)


def _until_rec(left: Var, right: Var, length: int, iv, cfg: SemanticsConfig) -> Var:
    out: list = [None] * length
    # looked up once: the loop below calls it for every timestep and offset
    pair_min, mode = tape.pair_smooth_min, cfg.mode
    # untimed until is the window [0, L - 1] clipped at the end, with no
    # padding; a timed window that overruns the end takes the padding value
    a, b = (0, length - 1) if iv is None else (iv.a, iv.b)
    pad = None
    if iv is not None:
        pad = pair_min(masking.pad_value(left, length, cfg),
                       masking.pad_value(right, length, cfg), Hard())
    phi = deque(maxlen=b + 1)      # left at t .. t+b
    psi = deque(maxlen=b - a + 1)  # right at t+a .. t+b
    for t in range(length - 1, -1, -1):
        phi.appendleft(tape.index_last(left, t))
        if t + a < length:
            psi.appendleft(tape.index_last(right, t + a))
        if pad is not None and t + b >= length:
            out[t] = pad
            continue
        terms = []
        psi_iter = iter(psi)
        # iterate rather than index: deque access by position is O(i)
        for i, phi_i in enumerate(phi):
            pm = phi_i if i == 0 else pair_min(pm, phi_i, mode)
            if i >= a:
                terms.append(pair_min(pm, next(psi_iter), mode))
        out[t] = _reduce(terms, "max", cfg) if len(terms) > 1 else terms[0]
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
