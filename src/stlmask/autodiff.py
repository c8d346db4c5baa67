"""Gradients of robustness with respect to signals and smooth-interval bounds.

``value_and_grad`` differentiates the masked engine's computation graph by
reverse accumulation on the tape, with the smooth-interval bounds bound as
:class:`Var` leaves in the formula.  Hard mode yields the one-hot subgradient
at the first extremal window entry; the clamp in the smooth window mask has
zero gradient where it is active.  ``finite_diff_check`` is the verification
contract: central differences against an analytic gradient vector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import masking, tape
from .core import NamedSignals, SemanticsConfig, SmoothInterval
from .formula import Always, Eventually, Formula
from .tape import Var

__all__ = ["Gradients", "value_and_grad", "finite_diff_check"]


@dataclass(frozen=True)
class Gradients:
    """Robustness value with its gradients.

    ``d_a``/``d_b``/``d_c`` are populated only when the formula carries a
    smooth interval.
    """

    value: float
    d_signal: dict[str, np.ndarray]
    d_a: Optional[float] = None
    d_b: Optional[float] = None
    d_c: Optional[float] = None


def _smooth_intervals(f: Formula) -> list[SmoothInterval]:
    smooth = isinstance(f, (Eventually, Always)) and isinstance(f.interval, SmoothInterval)
    found = [f.interval] if smooth else []
    for child in f.children():
        found += _smooth_intervals(child)
    return found


def _bind(f: Formula, si: SmoothInterval) -> Formula:
    """``f`` with ``si`` as the interval of every smooth-interval node."""
    if isinstance(f, (Eventually, Always)) and isinstance(f.interval, SmoothInterval):
        f = replace(f, interval=si)
    return f.replace_children(*(_bind(g, si) for g in f.children()))


def value_and_grad(f: Formula, signals: NamedSignals,
                   cfg: SemanticsConfig = SemanticsConfig(),
                   si: Optional[SmoothInterval] = None) -> Gradients:
    """Robustness (trace entry 0) and its exact reverse-mode gradients.

    ``si`` optionally re-binds the parameters of the formula's smooth-interval
    nodes, which makes finite-difference probes over (a, b, c) cheap.
    """
    channels = {name: Var(v) for name, v in masking._checked_channels(f, signals).items()}
    sis = _smooth_intervals(f)
    if si is not None:
        if not sis:
            raise ValueError("formula has no smooth-interval node to bind")
    elif len(set(sis)) > 1:
        raise ValueError("multiple distinct smooth intervals; pass si= to bind them")
    elif sis:
        si = sis[0]

    if si is not None:
        # fresh leaves from the bounds' values, also where they are taped
        a, b, c = (Var(v.data if isinstance(v, Var) else v) for v in (si.a, si.b, si.c))
        si = replace(si, a=a, b=b, c=c)
        f = _bind(f, si)
    out = masking.trace_var(f, channels, signals.length, cfg)
    # a start that reaches no leaf is a plain array; backward needs a node
    value = tape.as_var(tape.index_last(out, 0))
    tape.backward(value)

    d_signal = {
        name: np.array(v.grad, copy=True) if v.grad is not None else np.zeros(signals.length)
        for name, v in channels.items()
    }
    grads = Gradients(value=float(value.data), d_signal=d_signal)
    if si is not None:
        def scalar(v: Var) -> float:
            return float(v.grad) if v.grad is not None else 0.0
        grads = replace(grads, d_a=scalar(si.a), d_b=scalar(si.b), d_c=scalar(si.c))
    return grads


def finite_diff_check(fn: Callable[[np.ndarray], float], x0, analytic,
                      h: float = 1e-5) -> float:
    """Max relative error of ``analytic`` against central differences of ``fn``.

    Per coordinate: ``|analytic_i - numeric_i| / max(1, |numeric_i|)`` where
    ``numeric_i = (fn(x + h e_i) - fn(x - h e_i)) / 2h``.
    """
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    analytic = np.asarray(analytic, dtype=np.float64).reshape(-1)
    if analytic.shape != x0.shape:
        raise ValueError(f"gradient length {analytic.size} != point length {x0.size}")
    worst = 0.0
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = h
        numeric = (fn(x0 + e) - fn(x0 - e)) / (2.0 * h)
        err = abs(analytic[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
