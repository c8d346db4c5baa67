"""The benchmark's spec suite, workloads and correctness checks.

Each workload is a closed loop with one caller: op ``i`` runs on inputs drawn
from ``numpy.random.default_rng([seed, i])``, and the next op starts when it
returns.  Op 0 is the cold op of set-up and op 1 warms the allocator; the
timed phase starts at op 2.  Every op's output is checked after it returns,
outside the timed region.

The spec suite is built here from the public formula classes, with the
shapes of ``stlmask.bench.bench_formulas()`` (box predicates over ``x`` and
``y``, windows [0, 5], phi3 the untimed until), so that an edit to
``stlmask.bench`` cannot move a workload.
"""

from __future__ import annotations

import copy

import numpy as np

from stlmask import (
    Always,
    And,
    Eventually,
    Hard,
    LogSumExp,
    NamedSignals,
    Pred,
    SemanticsConfig,
    SmoothInterval,
    StepInterval,
    Until,
    finite_diff_check,
    masking,
    recurrent,
    robustness_ref,
    robustness_trace,
    tape,
    value_and_grad,
)
from stlmask.apps import MiningConfig, PlannerConfig, mine_interval, plan_trajectory, synth_step_dataset
from stlmask.tape import Var
from tracer import NullTracer

HARD = SemanticsConfig(mode=Hard())
LSE = SemanticsConfig(mode=LogSumExp(10.0))
#: engine-versus-engine and engine-versus-oracle agreement on values and gradients
TOL = 1e-9
#: central differences along one random direction, step FD_STEP
FD_TOL = 1e-6
FD_STEP = 1e-5
#: finite_diff_check step and bound for the smooth-interval bounds.  The
#: smooth_g value carries ~1e-9 of rounding noise (the window weights far
#: outside [a, b] are differences of two sigmoids near 1, and LSE(10) scales
#: them up by exp(10 * margin)), so the step is large; over 150 recordings the
#: worst error at this step was 4e-6.
BOUND_FD_STEP = 1e-4
BOUND_FD_TOL = 1e-4

_WINDOW = StepInterval(0, 5)


def _leaf(level: int, channel: str):
    lo = -0.5 - 0.1 * level
    return And(Pred(channel, ">", lo), Pred(channel, "<", lo + 1.0))


def _pair(level: int):
    return And(_leaf(level, "x"), _leaf(level, "y"))


def spec_suite() -> dict:
    """phi1..phi6 (the shapes of bench_formulas), a timed until and a smooth G."""
    inner = Eventually(_pair(0), _WINDOW)
    inner = Eventually(And(_pair(1), inner), _WINDOW)
    inner = Eventually(And(_pair(2), inner), _WINDOW)
    phi6 = Eventually(_pair(0), _WINDOW)
    for level in range(1, 10):
        phi6 = And(Eventually(_pair(level), _WINDOW), phi6)
    return {
        "phi1": Always(_pair(0)),
        "phi2": Eventually(Always(_pair(0))),
        "phi3": Until(_leaf(0, "x"), _leaf(0, "y")),
        "phi4": Eventually(And(_pair(3), inner), _WINDOW),
        "phi5": Eventually(And(_pair(2), Eventually(Always(_pair(0), _WINDOW), _WINDOW)), _WINDOW),
        "phi6": phi6,
        "until10": Until(_leaf(0, "x"), _leaf(0, "y"), StepInterval(0, 10)),
        "smooth_g": Always(_pair(0), SmoothInterval(0.2, 0.6, 0.25)),
    }


#: specs whose trace start depends on the whole suffix; the loop oracle costs
#: O(n) (phi1) or O(n^2) (phi2, phi3) per start index n samples before the end,
#: so their sampled start indices stay within this many samples of the end
_SUFFIX_SPAN = {"phi1": 256, "phi2": 24, "phi3": 16}


def _oracle_starts(i: int, name: str, specs: tuple, n: int, r: np.random.Generator) -> list:
    """Start indices checked against the oracle in op ``i``.

    Every spec is checked at the last start, where padding decides.  One spec
    per op, in turn, is also checked at a start drawn anywhere (near the end
    for the untimed specs, whose oracle cost grows with the suffix): one such
    start costs the oracle up to 70 ms (phi4), more than a monitor op.
    """
    if name != specs[i % len(specs)]:
        return [n - 1]
    span = _SUFFIX_SPAN.get(name)
    return [n - 1, int(r.integers(n - span if span else 0, n))]


def _mismatch(label: str, got, want, tol: float = TOL) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{label}: non-finite output"]
    err = float(np.max(np.abs(got - want), initial=0.0))
    return [] if err <= tol else [f"{label}: max |diff| {err:.3g} > {tol:g}"]


def _signals(arrays: dict, row=None) -> NamedSignals:
    return NamedSignals.from_arrays({k: v if row is None else v[row] for k, v in arrays.items()})


class Workload:
    name = ""
    specs_used: tuple = ()
    #: descent steps per op, for the per-step layer metrics
    plan_steps = 0
    mine_steps = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = spec_suite()

    def rng(self, i: int, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, i, stream])

    def inputs(self, i: int):
        raise NotImplementedError

    def op(self, inp, tr):
        raise NotImplementedError

    def check(self, i: int, inp, out) -> list[str]:
        """Problems found in op ``i``'s output; empty when it is correct."""
        raise NotImplementedError

    def corrupt(self, out):
        """A copy of ``out`` with one deliberately wrong output."""
        raise NotImplementedError

    def run_checks(self, i: int, inp, out) -> list[str]:
        """Checks made once per run, after the timed phase, on op ``i``."""
        return []


class Monitor(Workload):
    """One 2-channel recording through robustness_trace, hard mode."""

    name = "monitor"
    specs_used = ("phi1", "phi2", "phi4", "phi5", "phi6", "until10")
    length = 4096

    def inputs(self, i):
        r = self.rng(i)
        return {"x": r.normal(0.0, 1.0, self.length), "y": r.normal(0.0, 1.0, self.length)}

    def op(self, inp, tr):
        with tr.span("core.signals"):
            signals = _signals(inp)
        out = {}
        for name in self.specs_used:
            with tr.spec(name), tr.span("masking.fwd"):
                out[name] = robustness_trace(self.specs[name], signals, HARD)
        return out

    def check(self, i, inp, out):
        signals = _signals(inp)
        r = self.rng(i, 1)
        n = self.length
        problems = []
        for name in self.specs_used:
            trace = out[name]
            if trace.shape != (n,) or not np.all(np.isfinite(trace)):
                problems.append(f"{name}: trace is not {n} finite values")
                continue
            for t in _oracle_starts(i, name, self.specs_used, n, r):
                want = robustness_ref(self.specs[name], signals, t, HARD)
                problems += _mismatch(f"{name}[{t}]", trace[t], want)
        return problems

    def corrupt(self, out):
        bad = copy.deepcopy(out)
        bad["phi4"] = bad["phi4"] + 1e-6
        return bad


# the engine entry points are looked up on every call, so the wrappers that
# the traced run installs see them
def masked_engine(f, channels, length, cfg):
    return masking.trace_var(f, channels, length, cfg)


def recurrent_engine(f, channels, length, cfg):
    return recurrent.trace_var_recurrent(f, channels, length, cfg)


class _EngineBatch(Workload):
    """Hard values and LSE gradients of the summed trace starts, per spec."""

    specs_used = ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6")
    batch = 8
    length = 0

    def inputs(self, i):
        r = self.rng(i)
        shape = (self.batch, self.length)
        return {"x": r.normal(0.0, 1.0, shape), "y": r.normal(0.0, 1.0, shape)}

    def _spec_outputs(self, engine, f, arrays) -> dict:
        length = next(iter(arrays.values())).shape[-1]
        hard = engine(f, {k: Var(v) for k, v in arrays.items()}, length, HARD)
        channels = {k: Var(v) for k, v in arrays.items()}
        lse = engine(f, channels, length, LSE)
        tape.backward(tape.vsum(tape.index_last(lse, 0)))
        grad = {k: v.grad if v.grad is not None else np.zeros_like(v.data)
                for k, v in channels.items()}
        return {"hard": hard.data, "lse": lse.data, "grad": grad}

    def op(self, inp, tr):
        out = {}
        for name in self.specs_used:
            with tr.spec(name):
                out[name] = self._spec_outputs(self.engine, self.specs[name], inp)
        return out

    def corrupt(self, out):
        bad = copy.deepcopy(out)
        bad["phi4"]["lse"] = bad["phi4"]["lse"] + 1e-6
        bad["phi4"]["grad"]["x"] = bad["phi4"]["grad"]["x"] * 1.01
        return bad


def _compare_engines(label: str, got: dict, want: dict) -> list[str]:
    problems = _mismatch(f"{label} hard", got["hard"], want["hard"])
    problems += _mismatch(f"{label} lse", got["lse"], want["lse"])
    for k in want["grad"]:
        problems += _mismatch(f"{label} d{k}", got["grad"][k], want["grad"][k])
    return problems


class BatchGrad(_EngineBatch):
    """The masked engine at B=8, L=256, plus value_and_grad on a smooth G."""

    name = "batch_grad"
    length = 256
    #: masked-versus-recurrent comparison batch, checked once per run
    check_batch = (2, 48)

    engine = staticmethod(masked_engine)

    def op(self, inp, tr):
        out = super().op(inp, tr)
        with tr.spec("smooth_g"), tr.span("autodiff.value_and_grad"):
            out["smooth_g"] = value_and_grad(self.specs["smooth_g"], _signals(inp, 0), LSE)
        return out

    def check(self, i, inp, out):
        r = self.rng(i, 1)
        n = self.length
        problems = []
        for name in self.specs_used:
            f, res = self.specs[name], out[name]
            row = int(r.integers(self.batch))
            signals = _signals(inp, row)
            for t in _oracle_starts(i, name, self.specs_used, n, r):
                problems += _mismatch(f"{name} hard[{row},{t}]", res["hard"][row, t],
                                      robustness_ref(f, signals, t, HARD))
                problems += _mismatch(f"{name} lse[{row},{t}]", res["lse"][row, t],
                                      robustness_ref(f, signals, t, LSE))
            # rows are independent, so one row's gradient is checked on its own
            rows = slice(row, row + 1)
            problems += self._directional_fd(name, {k: v[rows] for k, v in inp.items()},
                                             {k: g[rows] for k, g in res["grad"].items()}, r)
        problems += self._check_smooth(inp, out["smooth_g"])
        return problems

    def _directional_fd(self, name, arrays, grad, r) -> list[str]:
        # the gradient against central differences of the forward pass alone
        direction = {k: r.normal(0.0, 1.0, v.shape) for k, v in arrays.items()}
        norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        direction = {k: d / norm for k, d in direction.items()}

        def total(sign):
            shifted = {k: Var(v + sign * FD_STEP * direction[k]) for k, v in arrays.items()}
            return float(np.sum(masked_engine(self.specs[name], shifted, self.length, LSE).data[..., 0]))

        numeric = (total(1.0) - total(-1.0)) / (2.0 * FD_STEP)
        analytic = sum(float(np.sum(grad[k] * direction[k])) for k in arrays)
        tol = FD_TOL * max(1.0, abs(numeric))
        if not abs(numeric - analytic) <= tol:
            return [f"{name} gradient: directional {analytic:.10g} vs central difference {numeric:.10g}"]
        return []

    def _check_smooth(self, inp, got) -> list[str]:
        f = self.specs["smooth_g"]
        si = f.interval
        signals = _signals(inp, 0)
        problems = _mismatch("smooth_g value", got.value, robustness_ref(f, signals, 0, LSE))
        for k, g in got.d_signal.items():
            if g.shape != (self.length,) or not np.all(np.isfinite(g)):
                problems.append(f"smooth_g d_signal[{k}] is not {self.length} finite values")

        def probe(which, v):
            kw = {"a": si.a, "b": si.b, "c": si.c}
            kw[which] = float(v[0])
            return value_and_grad(f, signals, LSE, si=SmoothInterval(**kw)).value

        for which in ("a", "b", "c"):
            analytic = getattr(got, f"d_{which}")
            err = finite_diff_check(lambda v: probe(which, v), [getattr(si, which)], [analytic],
                                    h=BOUND_FD_STEP)
            if not err <= BOUND_FD_TOL:
                problems.append(f"smooth_g d_{which}: finite-difference error {err:.3g}")
        return problems

    def run_checks(self, i, inp, out):
        # masked against recurrent on a small batch: same function, two engines
        batch, length = self.check_batch
        r = self.rng(i, 2)
        arrays = {"x": r.normal(0.0, 1.0, (batch, length)), "y": r.normal(0.0, 1.0, (batch, length))}
        problems = []
        for name in self.specs_used:
            f = self.specs[name]
            problems += _compare_engines(f"check batch {name}",
                                         self._spec_outputs(masked_engine, f, arrays),
                                         self._spec_outputs(recurrent_engine, f, arrays))
        return problems


class RecurrentBaseline(_EngineBatch):
    """The recurrent engine at B=8, L=128: the paper's comparison point."""

    name = "recurrent_baseline"
    length = 128
    #: rows per masked-engine check call; keeps the check's memory below the op's
    check_rows = 2

    engine = staticmethod(recurrent_engine)

    def check(self, i, inp, out):
        problems = []
        for name in self.specs_used:
            f, res = self.specs[name], out[name]
            for lo in range(0, self.batch, self.check_rows):
                rows = slice(lo, lo + self.check_rows)
                want = self._spec_outputs(masked_engine, f, {k: v[rows] for k, v in inp.items()})
                got = {"hard": res["hard"][rows], "lse": res["lse"][rows],
                       "grad": {k: g[rows] for k, g in res["grad"].items()}}
                problems += _compare_engines(f"{name} rows {lo}:{lo + self.check_rows}", got, want)
        return problems


class Descent(Workload):
    """One short planning run and one short mining run."""

    name = "descent"
    specs_used = ("plan", "mine")
    plan_steps = 200
    mine_steps = 1000

    def inputs(self, i):
        return int(self.rng(i).integers(2**31))

    def op(self, seed, tr):
        with tr.spec("plan"), tr.span("apps.plan"):
            plan = plan_trajectory(PlannerConfig(steps=self.plan_steps), seed=seed)
        with tr.spec("mine"), tr.span("apps.mine"):
            mine = mine_interval(synth_step_dataset(seed), MiningConfig(steps=self.mine_steps))
        return {"plan": plan, "mine": mine}

    def check(self, i, seed, out):
        problems = []
        for name, key, steps in (("plan", "objective_history", self.plan_steps),
                                 ("mine", "loss_history", self.mine_steps)):
            res = out[name]
            hist = np.asarray(res[key])
            if hist.shape != (steps,) or not np.all(np.isfinite(hist)):
                problems.append(f"{name}: history is not {steps} finite values")
            elif not hist[-1] < hist[0]:
                problems.append(f"{name}: loss did not fall ({hist[0]:.6g} -> {hist[-1]:.6g})")
            a, b = res["interval"]
            if not 0.0 <= a < b <= 1.0:
                problems.append(f"{name}: interval ({a}, {b}) outside 0 <= a < b <= 1")
        if not np.isfinite(out["plan"]["final_robustness"]):
            problems.append("plan: non-finite final robustness")
        return problems

    def corrupt(self, out):
        bad = copy.deepcopy(out)
        bad["mine"]["loss_history"][-1] = bad["mine"]["loss_history"][0] + 1.0
        return bad

    def run_checks(self, i, seed, out):
        # same seed, same config: the rerun must be bit-identical
        again = self.op(seed, NullTracer())
        problems = []
        for name in self.specs_used:
            for key, value in out[name].items():
                if not np.array_equal(np.asarray(value), np.asarray(again[name][key])):
                    problems.append(f"{name}.{key}: rerun with seed {seed} differs")
        return problems


WORKLOADS = {w.name: w for w in (Monitor, BatchGrad, RecurrentBaseline, Descent)}
