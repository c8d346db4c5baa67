"""Smooth min/max reductions, the differentiable window mask, and annealing.

The log-sum-exp reduction is composition-stable: applying it recursively over
a sequence equals applying it once over all values.  The softmax-average
reduction is not, which is why the recurrent engine drifts from the masked
engine in softmax mode.  All exponentials factor out the window maximum
first, so temperatures up to 1e3 stay inside float64 range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EmptyWindowError, Hard, LogSumExp, Mode, SmoothInterval, SoftMax

__all__ = [
    "smooth_max",
    "smooth_min",
    "sigmoid",
    "smooth_time_mask",
    "smooth_mask_weights",
    "AnnealSchedule",
]


def _prepare(values, weights):
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise EmptyWindowError("reduction over an empty window")
    if weights is None:
        return x, None
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape != x.shape:
        raise EmptyWindowError(f"weights length {w.size} != values length {x.size}")
    if not np.any(w > 0):
        raise EmptyWindowError("all reduction weights are zero")
    return x, w


def smooth_max(values, mode: Mode = Hard(), weights=None) -> float:
    """Reduce a window to its (smooth) maximum.

    ``weights`` in [0, 1] scale each entry's participation; zero excludes an
    entry entirely.  In hard mode only the set of entries with positive weight
    matters.
    """
    x, w = _prepare(values, weights)
    if isinstance(mode, Hard):
        kept = x if w is None else x[w > 0]
        return float(np.max(kept))
    tau = mode.temp
    # excluded entries may exceed the kept maximum; exp(-inf) keeps them at 0
    kept = x if w is None else np.where(w > 0, x, -np.inf)
    m = float(np.max(kept))
    e = np.exp(tau * (kept - m))
    if w is not None:
        e = w * e
    if isinstance(mode, LogSumExp):
        return float(np.log(np.sum(e)) / tau + m)
    if isinstance(mode, SoftMax):
        return float(np.sum(x * e) / np.sum(e))
    raise TypeError(f"unsupported mode: {mode!r}")


def smooth_min(values, mode: Mode = Hard(), weights=None) -> float:
    """Dual of :func:`smooth_max`: ``-smooth_max(-values)``."""
    x, w = _prepare(values, weights)
    return -smooth_max(-x, mode, w)


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below: never overflows
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return float(out) if out.ndim == 0 else out


def smooth_time_mask(i, si: SmoothInterval, length: int):
    """Differentiable window indicator at time index ``i``.

    ``max(sigmoid(c*(i - a*L)) - sigmoid(c*(i - b*L)) - eps, 0)`` where ``L``
    is the signal sample count.  Past the window's midpoint the difference is
    taken as ``sigmoid(c*(b*L - i)) - sigmoid(c*(a*L - i))``, the same value
    from two sigmoids below 1/2: the first form subtracts two values near 1
    there and loses far-window weights to cancellation, as the second does
    before the midpoint.  Scalar in, scalar out; arrays broadcast.
    """
    i = np.asarray(i, dtype=np.float64)
    lo, hi = si.a * length, si.b * length
    near = sigmoid(si.c * (i - lo)) - sigmoid(si.c * (i - hi))
    far = sigmoid(si.c * (hi - i)) - sigmoid(si.c * (lo - i))
    w = np.maximum(np.where(i > 0.5 * (lo + hi), far, near) - si.eps, 0.0)
    if w.ndim == 0:
        return float(w)
    return w


def smooth_mask_weights(si: SmoothInterval, length: int) -> np.ndarray:
    """Window weights for every index ``0..length-1``.

    Raises :class:`EmptyWindowError` when the interval collapsed below the
    tolerance and every weight is zero.
    """
    w = smooth_time_mask(np.arange(length), si, length)
    if not np.any(w > 0):
        raise EmptyWindowError("smooth interval produced an all-zero weight vector")
    return w


# endpoints of the sigmoid schedule's shape, before rescaling to [start, end]
_SIGMOID_LO, _SIGMOID_HI = sigmoid(-6.0), sigmoid(6.0)


@dataclass(frozen=True)
class AnnealSchedule:
    """Scheduled parameter value over an optimization run.

    The sigmoid shape is rescaled so the endpoints hit ``start`` and ``end``
    exactly; its midpoint slope uses a fixed constant of 12.
    """

    kind: str  # "constant" | "linear" | "sigmoid"
    start: float
    end: float
    total: int = 1

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "sigmoid"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.total < 1:
            raise ValueError("total steps must be >= 1")
        if not (0 < self.start < np.inf and 0 < self.end < np.inf):
            raise ValueError(f"schedule values must be positive and finite, got {self.start}, {self.end}")

    @classmethod
    def constant(cls, value: float) -> "AnnealSchedule":
        return cls("constant", value, value, 1)

    @classmethod
    def linear(cls, start: float, end: float, total: int) -> "AnnealSchedule":
        return cls("linear", start, end, total)

    @classmethod
    def sigmoid(cls, start: float, end: float, total: int) -> "AnnealSchedule":
        return cls("sigmoid", start, end, total)

    def value(self, step: int) -> float:
        if self.kind == "constant":
            return self.start
        if not 0 <= step <= self.total:
            raise ValueError(f"step {step} outside [0, {self.total}]")
        p = step / self.total
        if self.kind == "linear":
            return self.start + (self.end - self.start) * p
        frac = (sigmoid(12.0 * (p - 0.5)) - _SIGMOID_LO) / (_SIGMOID_HI - _SIGMOID_LO)
        return self.start + (self.end - self.start) * frac
