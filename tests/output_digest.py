"""SHA-256 digests of the library's outputs, for checking that a refactor
leaves every value and gradient bit for bit as it was.

Run it on two checkouts and compare the printed lines::

    PYTHONPATH=src python tests/output_digest.py

Seven sets of results are hashed:

* masked: traces and channel gradients (with a random cotangent) of 300
  random formulas on random signals, in Hard, LogSumExp (tau = 0.5, 10, 500)
  and SoftMax (tau = 0.5, 2, 10) semantics, with random padding;
* recurrent: the same for the recurrent engine on the first 60 cases;
* long: the masked traces and channel gradients of ``helpers.long_cases``,
  28 random formulas at 200 to 400 samples with windows scaled to the
  signal, smooth intervals among them, in every mode and padding;
* values: the entry points that build no graph: ``robustness_trace`` on the
  300 cases and ``trace_recurrent`` on the first 60, in the same modes, and
  ``planning_objective`` and ``mining_objective`` on a small grid of
  controls, bounds and sharpness values;
* trace ops: ``eventually_trace`` and ``always_trace`` on the cases'
  ``x`` channel and ``until_trace`` on ``x`` and ``y``, over untimed, timed
  (some longer than the signal) and smooth intervals, in every mode, with
  last-value and constant padding;
* smooth: ``F`` and ``G`` over smooth intervals whose bounds lie on a grid
  of tenths, many of them with a sample at the window's exact midpoint:
  unbound ``robustness_trace`` in every mode, and ``value_and_grad``
  (signal and ``a``, ``b``, ``c`` gradients) in Hard, LogSumExp and SoftMax;
* plan and mine: ``plan_trajectory`` and ``mine_interval`` results at 1000
  steps for seeds 0-2.

Arrays are hashed after ``+ 0.0``, so a signed zero does not count as a
change.  A case that raises hashes the exception's type instead.  The file
name keeps pytest from collecting it.
"""

import hashlib

import numpy as np

from helpers import MODES, long_cases, random_formula, random_signals
from stlmask import apps, autodiff, masking, recurrent, tape
from stlmask.core import (Hard, LogSumExp, NamedSignals, PaddingPolicy, SemanticsConfig,
                          SmoothInterval, SoftMax, StepInterval, StlError)
from stlmask.formula import Always, And, Eventually, Pred
from stlmask.recurrent import trace_recurrent
from stlmask.tape import Var

CASES = 300
RECURRENT_CASES = 60
DESCENT_STEPS = 1000
SMOOTH_LENGTHS = (6, 10, 20)
#: (sharpness, eps) pairs of the smooth-interval grid
SMOOTH_SHAPES = ((4.0, 0.0), (40.0, 0.05))
GRAD_MODES = (Hard(), LogSumExp(10.0), SoftMax(2.0))
TRACE_INTERVALS = (None, StepInterval(0, 0), StepInterval(0, 3), StepInterval(2, 7),
                   StepInterval(6, 30), SmoothInterval(0.2, 0.6, 8.0))
TRACE_PADDINGS = (PaddingPolicy.last_value(), PaddingPolicy.constant(0.75))
SEEDS = (0, 1, 2)


class Digest:
    def __init__(self):
        self._sha = hashlib.sha256()

    def add(self, *values):
        for v in values:
            if isinstance(v, str):
                self._sha.update(v.encode())
            else:
                arr = np.ascontiguousarray(np.asarray(v, dtype=np.float64) + 0.0)
                self._sha.update(str(arr.shape).encode())
                self._sha.update(arr.tobytes())

    def hex(self) -> str:
        return self._sha.hexdigest()[:16]


def cases():
    """``(formula, signals, padding, cotangent)`` for every case, fixed by one seed."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(CASES):
        f = random_formula(rng, int(rng.integers(1, 4)))
        signals = random_signals(rng)
        pad = (PaddingPolicy.constant(float(rng.normal(0, 2))) if rng.random() < 0.5
               else PaddingPolicy.last_value())
        out.append((f, signals, pad, rng.normal(0, 1, signals.length)))
    return out


def engine_digest(trace_var, selected) -> str:
    return traced_digest(trace_var, [(f, signals, SemanticsConfig(mode=mode, padding=pad), cotangent)
                                     for f, signals, pad, cotangent in selected for mode in MODES])


def traced_digest(trace_var, selected) -> str:
    """Traces and channel gradients of ``(formula, signals, cfg, cotangent)`` cases."""
    digest = Digest()
    for f, signals, cfg, cotangent in selected:
        channels = {name: Var(signals[name].values) for name in signals.names()}
        try:
            # a trace that reads no channel is an array; backward needs a node
            out = tape.as_var(trace_var(f, channels, signals.length, cfg))
            tape.backward(out, cotangent)
        except StlError as exc:
            digest.add(type(exc).__name__)
            continue
        digest.add(out.data)
        for name in sorted(channels):
            grad = channels[name].grad
            digest.add("none" if grad is None else grad)
    return digest.hex()


def values_digest(selected) -> str:
    digest = Digest()
    for evaluate, chosen in ((masking.robustness_trace, selected),
                             (trace_recurrent, selected[:RECURRENT_CASES])):
        for f, signals, pad, _ in chosen:
            for mode in MODES:
                try:
                    digest.add(evaluate(f, signals, SemanticsConfig(mode=mode, padding=pad)))
                except StlError as exc:
                    digest.add(type(exc).__name__)
    rng = np.random.default_rng(11)
    cfg = apps.PlannerConfig()
    for scale in (0.5, 2.0):
        # at scale 2 some controls exceed the control limit
        u = rng.normal(0, scale, (cfg.horizon, 2))
        for a_raw, b_raw in ((-1.5, 1.0), (0.3, -0.2), (-0.5, 2.0)):
            for temp, sharp in ((3.0, 0.1), (100.0, 35.0)):
                digest.add([apps.planning_objective(u, a_raw, b_raw, cfg, temp, sharp)])
    tenths = [k / 10 for k in range(11)]
    for seed in (0, 1):
        data = apps.synth_step_dataset(seed, n=8)
        for a in tenths:
            for b in (b for b in tenths if b > a):
                for sharp in (5.0, 50.0):
                    for mode in GRAD_MODES:
                        try:
                            digest.add([apps.mining_objective(a, b, data, 0.15, sharp,
                                                              SemanticsConfig(mode=mode))])
                        except StlError as exc:
                            digest.add(type(exc).__name__)
    return digest.hex()


def trace_ops_digest(selected) -> str:
    digest = Digest()
    for _, signals, _, _ in selected:
        x, y = signals["x"].values, signals["y"].values
        for iv in TRACE_INTERVALS:
            for mode in MODES:
                for pad in TRACE_PADDINGS:
                    cfg = SemanticsConfig(mode=mode, padding=pad)
                    for op, args in ((masking.eventually_trace, (x,)), (masking.always_trace, (x,)),
                                     (masking.until_trace, (x, y))):
                        try:
                            digest.add(op(*args, iv, cfg))
                        except (StlError, TypeError) as exc:
                            # until rejects smooth intervals with a TypeError
                            digest.add(type(exc).__name__)
    return digest.hex()


def smooth_digest() -> str:
    digest = Digest()
    rng = np.random.default_rng(7)
    inner = And(Pred("x", ">", 0.3), Pred("y", "<", 0.5))
    tenths = [k / 10 for k in range(11)]
    for length in SMOOTH_LENGTHS:
        signals = NamedSignals.from_arrays({"x": rng.normal(0, 1, length),
                                            "y": rng.normal(0, 1, length)})
        for a in tenths:
            for b in (b for b in tenths if b > a):
                for c, eps in SMOOTH_SHAPES:
                    si = SmoothInterval(a, b, c, eps)
                    for op in (Eventually, Always):
                        f = op(inner, si)
                        for mode in MODES:
                            try:
                                digest.add(masking.robustness_trace(f, signals, SemanticsConfig(mode=mode)))
                            except StlError as exc:
                                digest.add(type(exc).__name__)
                        for mode in GRAD_MODES:
                            try:
                                g = autodiff.value_and_grad(f, signals, SemanticsConfig(mode=mode))
                            except StlError as exc:
                                digest.add(type(exc).__name__)
                                continue
                            digest.add([g.value, g.d_a, g.d_b, g.d_c], g.d_signal["x"], g.d_signal["y"])
    return digest.hex()


def main():
    selected = cases()
    print("masked   ", engine_digest(masking.trace_var, selected))
    print("recurrent", engine_digest(recurrent.trace_var_recurrent, selected[:RECURRENT_CASES]))
    print("long     ", traced_digest(masking.trace_var, long_cases()))
    print("trace ops", trace_ops_digest(selected))
    print("smooth   ", smooth_digest())
    print("values   ", values_digest(selected))
    for seed in SEEDS:
        plan = apps.plan_trajectory(apps.PlannerConfig(steps=DESCENT_STEPS), seed=seed)
        digest = Digest()
        digest.add(plan["controls"], plan["states"], plan["interval"],
                   plan["objective_history"], [plan["final_robustness"]])
        print(f"plan {seed}   ", digest.hex())
    for seed in SEEDS:
        mine = apps.mine_interval(apps.synth_step_dataset(seed), apps.MiningConfig(steps=DESCENT_STEPS))
        digest = Digest()
        digest.add(mine["interval"], mine["loss_history"])
        print(f"mine {seed}   ", digest.hex())


if __name__ == "__main__":
    main()
