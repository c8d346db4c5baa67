"""Wall-time comparison of the masked and recurrent engines.

Six specification shapes of increasing nesting depth are instantiated with
box predicates over two channels: the level-i leaves are
``phi_i = (x > c_i) & (x < c_i + 1)`` and ``psi_i`` likewise on ``y`` with
``c_i = -0.5 - 0.1 * i``, and every bounded operator uses the window [0, 5].
Signals are standard-normal draws, batch-evaluated in one call per engine.

Values are timed in hard mode; gradient timings (forward plus reverse sweep
of the summed trace starts) use log-sum-exp.  Medians over ``reps``
repetitions after discarded warmups; relative time is
``masking / recurrent - 1`` (negative favors masking).
"""

from __future__ import annotations

import gc
import time

import numpy as np

from . import masking, recurrent, tape
from .core import Hard, LogSumExp, SemanticsConfig, StepInterval
from .formula import And, Eventually, Always, Formula, Pred, Until, temporal_depth
from .tape import Var

__all__ = ["bench_formulas", "run_bench"]

_WINDOW = StepInterval(0, 5)
#: untimed calls before each timed series
_WARMUP = 3
#: log-sum-exp temperature of the gradient timings
_GRAD_TEMP = 10.0


def _leaf(level: int, channel: str) -> Formula:
    lo = -0.5 - 0.1 * level
    return And(Pred(channel, ">", lo), Pred(channel, "<", lo + 1.0))


def _pair(level: int) -> Formula:
    return And(_leaf(level, "x"), _leaf(level, "y"))


def bench_formulas() -> dict[str, Formula]:
    """The six benchmark specifications, keyed phi1..phi6."""
    # phi4: nested sequenced visits, depth 3
    inner = Eventually(_pair(0), _WINDOW)
    inner = Eventually(And(_pair(1), inner), _WINDOW)
    inner = Eventually(And(_pair(2), inner), _WINDOW)
    phi4 = Eventually(And(_pair(3), inner), _WINDOW)
    # phi5: sequenced visit then stabilization, depth 2
    phi5 = Eventually(And(_pair(2), Eventually(Always(_pair(0), _WINDOW), _WINDOW)), _WINDOW)
    # phi6: reach ten regions in any order, depth 0
    phi6 = Eventually(_pair(0), _WINDOW)
    for level in range(1, 10):
        phi6 = And(Eventually(_pair(level), _WINDOW), phi6)
    formulas = {
        "phi1": Always(_pair(0)),
        "phi2": Eventually(Always(_pair(0))),
        "phi3": Until(_leaf(0, "x"), _leaf(0, "y")),
        "phi4": phi4,
        "phi5": phi5,
        "phi6": phi6,
    }
    assert [temporal_depth(f) for f in formulas.values()] == [0, 1, 1, 3, 2, 0]
    return formulas


def _channels(length: int, batch: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {"x": rng.normal(0.0, 1.0, (batch, length)),
            "y": rng.normal(0.0, 1.0, (batch, length))}


def _time_once(fn) -> float:
    # collector pauses would land in arbitrary reps; keep them out, as timeit does
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def _engine_fn(engine: str, f: Formula, data: dict[str, np.ndarray], length: int,
               cfg: SemanticsConfig, grad: bool):
    builder = masking.trace_var if engine == "masking" else recurrent.trace_var_recurrent

    def run():
        # value timings pass the arrays, so they build no graph
        channels = {k: Var(v) for k, v in data.items()} if grad else data
        out = builder(f, channels, length, cfg)
        if grad:
            tape.backward(tape.vsum(tape.index_last(out, 0)))
    return run


def run_bench(sizes=(32, 64, 128, 256, 512), reps: int = 11, batch: int = 8,
              include_grad: bool = False, seed: int = 0) -> dict:
    """Measure both engines and report medians, IQRs, and relative times."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    formulas = bench_formulas()
    rng = np.random.default_rng(seed)
    value_cfg = SemanticsConfig(mode=Hard())
    grad_cfg = SemanticsConfig(mode=LogSumExp(_GRAD_TEMP))

    kinds = ("value", "grad") if include_grad else ("value",)
    results = []
    for name, f in formulas.items():
        for length in sizes:
            data = _channels(int(length), batch, rng)
            for engine in ("masking", "recurrent"):
                measurements = {}
                for kind in kinds:
                    fn = _engine_fn(engine, f, data, int(length),
                                    grad_cfg if kind == "grad" else value_cfg, kind == "grad")
                    for _ in range(_WARMUP):
                        fn()
                    times = [_time_once(fn) for _ in range(reps)]
                    q1, med, q3 = np.percentile(times, [25, 50, 75])
                    measurements[kind] = {"median_s": float(med), "iqr_s": float(q3 - q1)}
                results.append({"formula": name, "engine": engine, "length": int(length),
                                "batch": batch, "reps": reps, **{
                                    f"{k}_{m}": v for k, d in measurements.items()
                                    for m, v in d.items()}})

    by_key = {(r["formula"], r["length"], r["engine"]): r for r in results}
    relative = []
    for name in formulas:
        for length in sizes:
            masked = by_key[(name, int(length), "masking")]
            rec = by_key[(name, int(length), "recurrent")]
            row = {"formula": name, "length": int(length)}
            for kind in kinds:
                row[f"{kind}_relative"] = masked[f"{kind}_median_s"] / rec[f"{kind}_median_s"] - 1.0
            relative.append(row)

    return {
        "meta": {"sizes": [int(s) for s in sizes], "reps": reps, "batch": batch,
                 "seed": seed, "warmup": _WARMUP, "include_grad": include_grad,
                 "value_mode": "hard", "grad_mode": f"lse(temp={_GRAD_TEMP})"},
        "results": results,
        "relative": relative,
    }
