"""Differentiable signal temporal logic robustness over discrete-time signals.

The package evaluates robustness traces three ways — masked window reductions
(the fast path), a backward recurrence (baseline), and loop-based reference
semantics (oracle) — differentiates robustness with respect to signal values
and smoothed window bounds, and ships gradient-descent drivers for trajectory
planning and interval mining plus a CLI.
"""

from .core import (
    DivergedError,
    EmptySignalError,
    EmptyWindowError,
    Hard,
    InvalidIntervalError,
    LogSumExp,
    NamedSignals,
    NonFiniteSampleError,
    PaddingPolicy,
    SemanticsConfig,
    ShapeError,
    Signal,
    SmoothInterval,
    SoftMax,
    StepInterval,
    StlError,
    ValidationError,
    make_signal,
    window_size,
)
from .formula import (
    TRUE,
    Always,
    And,
    Eventually,
    Formula,
    Not,
    Or,
    ParseError,
    Pred,
    TrueFormula,
    Until,
    format_formula,
    parse,
    temporal_depth,
    validate_against,
)
from .masking import (
    always_trace,
    eventually_trace,
    robustness,
    robustness_trace,
    until_trace,
)
from .recurrent import trace_recurrent
from .reference import eval_bool, robustness_ref, trace_ref
from .smoothing import AnnealSchedule, smooth_mask_weights, smooth_max, smooth_min, smooth_time_mask
from .autodiff import Gradients, finite_diff_check, value_and_grad

__all__ = [
    "AnnealSchedule",
    "Always",
    "And",
    "DivergedError",
    "EmptySignalError",
    "EmptyWindowError",
    "Eventually",
    "Formula",
    "Gradients",
    "Hard",
    "InvalidIntervalError",
    "LogSumExp",
    "NamedSignals",
    "NonFiniteSampleError",
    "Not",
    "Or",
    "PaddingPolicy",
    "ParseError",
    "Pred",
    "SemanticsConfig",
    "ShapeError",
    "Signal",
    "SmoothInterval",
    "SoftMax",
    "StepInterval",
    "StlError",
    "TRUE",
    "TrueFormula",
    "Until",
    "ValidationError",
    "always_trace",
    "eval_bool",
    "eventually_trace",
    "finite_diff_check",
    "format_formula",
    "make_signal",
    "parse",
    "robustness",
    "robustness_ref",
    "robustness_trace",
    "smooth_mask_weights",
    "smooth_max",
    "smooth_min",
    "smooth_time_mask",
    "temporal_depth",
    "trace_recurrent",
    "trace_ref",
    "until_trace",
    "validate_against",
    "value_and_grad",
    "window_size",
]

__version__ = "0.1.0"
