"""Shared domain types: signals, intervals, traces, and evaluation configuration.

Everything here is immutable after construction and safe for concurrent reads.
A robustness trace is represented as a plain 1-D float64 ``numpy.ndarray`` of
the same length as the input signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

import numpy as np

__all__ = [
    "StlError",
    "EmptySignalError",
    "NonFiniteSampleError",
    "InvalidIntervalError",
    "ShapeError",
    "EmptyWindowError",
    "DivergedError",
    "ValidationError",
    "Signal",
    "NamedSignals",
    "StepInterval",
    "SmoothInterval",
    "PaddingPolicy",
    "Hard",
    "SoftMax",
    "LogSumExp",
    "Mode",
    "SemanticsConfig",
    "make_signal",
    "window_size",
]


class StlError(Exception):
    """Base class for all library errors."""


class EmptySignalError(StlError):
    """A signal was constructed with zero samples."""


class NonFiniteSampleError(StlError):
    """A signal sample is NaN or infinite."""


class InvalidIntervalError(StlError):
    """An interval violates 0 <= a <= b (or the smooth-interval constraints)."""


class ShapeError(StlError):
    """Array arguments have incompatible shapes or lengths."""


class EmptyWindowError(StlError):
    """A reduction window contains no usable entries (all weights zero)."""


class DivergedError(StlError):
    """An optimization run produced a non-finite objective."""


class ValidationError(StlError):
    """A formula references predicate variables missing from the signals."""

    def __init__(self, missing):
        self.missing = sorted(missing)
        super().__init__(f"missing signal channels: {', '.join(self.missing)}")


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled scalar signal.

    ``dt`` is carried for file round-tripping and the application drivers; the
    semantics themselves work purely in timesteps.
    """

    values: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim > 1:
            raise ShapeError(f"signal samples must be one-dimensional, got shape {arr.shape}")
        arr = arr.reshape(-1).copy()
        if arr.size == 0:
            raise EmptySignalError("signal must contain at least one sample")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteSampleError("signal samples must be finite")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be a positive finite number, got {self.dt}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.shape[0])


def make_signal(samples, dt: float = 1.0) -> Signal:
    """Build a :class:`Signal` from a sequence of finite samples."""
    return Signal(np.asarray(samples, dtype=np.float64), dt)


@dataclass(frozen=True)
class NamedSignals:
    """A set of equally sampled signals keyed by predicate variable name."""

    channels: Mapping[str, Signal]

    def __post_init__(self):
        chans = dict(self.channels)
        if not chans:
            raise EmptySignalError("NamedSignals requires at least one channel")
        lengths = {len(s) for s in chans.values()}
        if len(lengths) != 1:
            raise ShapeError(f"channel lengths differ: {sorted(lengths)}")
        dts = {s.dt for s in chans.values()}
        if len(dts) != 1:
            raise ShapeError(f"channel dt values differ: {sorted(dts)}")
        object.__setattr__(self, "channels", chans)

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, "np.ndarray"], dt: float = 1.0) -> "NamedSignals":
        return cls({name: make_signal(vals, dt) for name, vals in arrays.items()})

    @property
    def length(self) -> int:
        return len(next(iter(self.channels.values())))

    @property
    def dt(self) -> float:
        return next(iter(self.channels.values())).dt

    def names(self) -> list[str]:
        return list(self.channels)

    def __getitem__(self, name: str) -> Signal:
        return self.channels[name]

    def __contains__(self, name: str) -> bool:
        return name in self.channels

    def __iter__(self) -> Iterator[str]:
        return iter(self.channels)


@dataclass(frozen=True)
class StepInterval:
    """Discrete time interval ``[a, b]`` in timesteps, inclusive on both ends."""

    a: int
    b: int

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise InvalidIntervalError("interval bounds must be integers")
        if not (0 <= self.a <= self.b):
            raise InvalidIntervalError(f"need 0 <= a <= b, got [{self.a}, {self.b}]")


def window_size(iv: StepInterval) -> int:
    """Number of timesteps contained in the interval, inclusive."""
    return iv.b - iv.a + 1


@dataclass(frozen=True)
class SmoothInterval:
    """Differentiable interval with normalized bounds.

    ``a`` and ``b`` are fractions of the signal length, ``c`` is the mask
    sharpness, and ``eps`` is subtracted from the mask before clamping at
    zero.  Keep ``eps`` at 0 unless downstream code needs strictly-zero tail
    weights; positive values can empty a window entirely.  ``a``, ``b`` and
    ``c`` may be :class:`stlmask.tape.Var`, checked by value, to take gradients.
    """

    a: float
    b: float
    c: float = 8.0
    eps: float = 0.0

    def __post_init__(self):
        from .tape import Var  # tape imports this module
        a, b, c = (v.data if isinstance(v, Var) else v for v in (self.a, self.b, self.c))
        if not (0.0 <= a < b <= 1.0):
            raise InvalidIntervalError(f"need 0 <= a < b <= 1, got ({a}, {b})")
        if not c > 0:
            raise InvalidIntervalError(f"mask sharpness c must be positive, got {c}")
        if not (0.0 <= self.eps < 0.5):
            raise InvalidIntervalError(f"need 0 <= eps < 0.5, got {self.eps}")


@dataclass(frozen=True)
class PaddingPolicy:
    """Rule for virtual samples appended past the signal end.

    ``last`` repeats the final value; ``const`` appends a fixed value.
    """

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("last", "const"):
            raise ValueError(f"padding kind must be 'last' or 'const', got {self.kind!r}")
        if self.kind == "const" and not math.isfinite(self.value):
            raise NonFiniteSampleError("constant padding value must be finite")

    @classmethod
    def last_value(cls) -> "PaddingPolicy":
        return cls("last")

    @classmethod
    def constant(cls, value: float) -> "PaddingPolicy":
        return cls("const", float(value))


@dataclass(frozen=True)
class Hard:
    """Exact min/max reductions."""


@dataclass(frozen=True)
class SoftMax:
    """Softmax-weighted average reduction with temperature ``temp``."""

    temp: float = 1.0

    def __post_init__(self):
        if not 0 < self.temp < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temp}")


@dataclass(frozen=True)
class LogSumExp:
    """Log-sum-exp reduction with temperature ``temp``."""

    temp: float = 1.0

    def __post_init__(self):
        if not 0 < self.temp < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temp}")


Mode = Union[Hard, SoftMax, LogSumExp]


@dataclass(frozen=True)
class SemanticsConfig:
    """Evaluation configuration shared by every engine.

    ``top_value`` is the robustness assigned to the constant-true formula.
    """

    mode: Mode = Hard()
    padding: PaddingPolicy = PaddingPolicy("last")
    top_value: float = 1e5

    def __post_init__(self):
        if not self.top_value > 0:
            raise ValueError(f"top_value must be positive, got {self.top_value}")
        if not isinstance(self.mode, (Hard, SoftMax, LogSumExp)):
            raise TypeError(f"unsupported mode: {self.mode!r}")
