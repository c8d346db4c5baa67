"""Gradient-descent application drivers.

Two reproducible studies ship with the library:

* trajectory planning for a single integrator that must sit inside a target
  box during a tunable time window and eventually reach a goal box, where the
  window bounds are optimized jointly with the controls, and
* mining the widest time interval over which a dataset of noisy step signals
  stays positive.

Both optimize with plain fixed-step gradient descent.  Interval bounds are
kept inside (0, 1) by passing free parameters through a sigmoid and ordering
the pair; mask sharpness and reduction temperature follow anneal schedules.
Runs are deterministic given (seed, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from . import masking, tape
from .core import (
    DivergedError,
    Hard,
    LogSumExp,
    NamedSignals,
    SemanticsConfig,
    SmoothInterval,
    StepInterval,
)
from .formula import Always, And, Eventually, Formula, Pred
from .smoothing import AnnealSchedule
from .tape import Var

__all__ = [
    "PlannerConfig",
    "MiningConfig",
    "rollout_single_integrator",
    "box_formula",
    "planning_formula",
    "planning_objective",
    "plan_trajectory",
    "synth_step_dataset",
    "mining_objective",
    "mine_interval",
    "grid_eval",
]

Schedule = tuple[str, float, float]  # (kind, start, end); total bound at run time


def _schedule(spec: Schedule, total: int) -> AnnealSchedule:
    kind, start, end = spec
    if kind == "constant":
        return AnnealSchedule.constant(start)
    return AnnealSchedule(kind, float(start), float(end), max(int(total), 1))


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _check_finite(cfg):
    """Raises ``ValueError`` at the first float of the config ``cfg``, alone
    or in a tuple, that is not finite."""
    for field in fields(cfg):
        value = getattr(cfg, field.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{field.name} must be finite, got {value}")


def _check_descent(steps: int, lr: float, init_interval, **schedules: Schedule):
    """Validate the settings both drivers share; raises ``ValueError``."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not 0.0 < lr < math.inf:
        raise ValueError(f"lr must be positive and finite, got {lr}")
    if len(init_interval) != 2 or not all(0.0 < p < 1.0 for p in init_interval):
        raise ValueError(f"init_interval must be two bounds strictly inside (0, 1), got {init_interval}")
    for name, spec in schedules.items():
        try:
            _schedule(spec, 1)  # unpacks (kind, start, end); AnnealSchedule checks the rest
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None


def _ordered_bounds(alpha, beta):
    """The ordered bounds ``(a, b)`` that the descent parameters stand for:
    :class:`Var` nodes from :class:`Var` parameters, arrays from floats."""
    sa, sb = tape.sigmoid(alpha), tape.sigmoid(beta)
    # hard ties go to the first operand, so a == b routes both gradients to alpha
    return tape.pair_smooth_min(sa, sb, Hard()), tape.pair_smooth_max(sa, sb, Hard())


def _descend(cfg, name: str, loss, *arrays):
    """Fixed-step gradient descent on ``arrays`` and on the logits of the
    interval bounds, started at ``cfg.init_interval``.

    ``loss(a, b, temp, sharp, *leaves)`` builds one step's objective from the
    ordered bounds, the schedules' values at that step and one leaf per array.
    Returns the final arrays, the final ordered bounds as floats and the
    objective history.  Raises :class:`DivergedError` when the bounds leave
    ``0 <= a < b <= 1`` or the objective, called ``name`` in the message, is
    not finite.
    """
    params = [*arrays, *(_logit(p) for p in cfg.init_interval)]
    temp_sched = _schedule(cfg.temp_anneal, cfg.steps)
    sharp_sched = _schedule(cfg.sharp_anneal, cfg.steps)
    history = []
    for step in range(cfg.steps):
        leaves = [Var(p) for p in params]
        a, b = _ordered_bounds(leaves[-2], leaves[-1])
        # the sigmoid saturates in float64 and equal parameters give equal
        # bounds, so the window can close although the reparameterization
        # is meant to keep it open
        lo, hi = float(a.data), float(b.data)
        if not 0.0 <= lo < hi <= 1.0:
            raise DivergedError(f"interval bounds left 0 <= a < b <= 1 at step {step}: a={lo!r}, b={hi!r}")
        total = loss(a, b, temp_sched.value(step), sharp_sched.value(step), *leaves[:-2])
        value = float(total.data)
        if not math.isfinite(value):
            raise DivergedError(f"{name} became {value} at step {step}")
        history.append(value)
        tape.backward(total)
        params = [p - cfg.lr * leaf.grad for p, leaf in zip(params, leaves)]
    interval = tuple(float(v) for v in _ordered_bounds(params[-2], params[-1]))
    return params[:-2], interval, history


# ---------------------------------------------------------------------------
# Trajectory planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlannerConfig:
    """Weights, geometry, and descent settings for the planning study."""

    gamma1: float = 1.1   # specification violation
    gamma2: float = 0.05  # interval-size reward
    gamma3: float = 2.0   # control-limit penalty
    gamma4: float = 0.5   # control effort
    interval_nominal: float = 0.2
    control_limit: float = 2.0
    dt: float = 0.1
    horizon: int = 51     # control steps; the state sequence has horizon+1 samples
    target_box: tuple[float, float, float, float] = (0.8, 1.2, 0.8, 1.2)
    goal_box: tuple[float, float, float, float] = (1.8, 2.2, 1.8, 2.2)
    start: tuple[float, float] = (0.0, 0.0)
    init_interval: tuple[float, float] = (0.14, 0.82)
    control_init_scale: float = 0.05
    lr: float = 0.06
    steps: int = 4000
    # the mask sharpness must start soft: early on the window position barely
    # matters, so the controls learn to sit in the target before the window
    # localizes; a sharp start lets the window collapse to a sliver instead
    temp_anneal: Schedule = ("sigmoid", 3.0, 100.0)
    sharp_anneal: Schedule = ("linear", 0.1, 35.0)

    def __post_init__(self):
        _check_finite(self)
        if min(self.gamma1, self.gamma2, self.gamma3, self.gamma4) < 0:
            raise ValueError("objective weights must be nonnegative")
        if not self.control_limit > 0:
            raise ValueError("control limit must be positive")
        if not 0 < self.interval_nominal < 1:
            raise ValueError("nominal interval size must lie in (0, 1)")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.control_init_scale >= 0:
            raise ValueError(f"control_init_scale must be nonnegative, got {self.control_init_scale}")
        for name, size in (("target_box", 4), ("goal_box", 4), ("start", 2)):
            if len(getattr(self, name)) != size:
                raise ValueError(f"{name} takes {size} values, got {getattr(self, name)}")
        _check_descent(self.steps, self.lr, self.init_interval,
                       temp_anneal=self.temp_anneal, sharp_anneal=self.sharp_anneal)


def _rollout(x0, controls, dt: float) -> list:
    """Per-axis positions under ``x_{t+1} = x_t + dt * u_t``, each of
    ``len(controls) + 1`` samples; taped when ``controls`` is a :class:`Var`."""
    return [tape.concat_last([np.array([start]),
                              tape.cumsum0(tape.index_last(controls, k)) * dt + start])
            for k, start in enumerate(x0)]


def rollout_single_integrator(x0, controls, dt: float) -> np.ndarray:
    """States under ``x_{t+1} = x_t + dt * u_t``; returns ``len(controls)+1`` rows."""
    return np.stack(_rollout(x0, controls, dt), axis=-1)


def box_formula(box, xname: str = "x", yname: str = "y") -> Formula:
    """Inside-box membership: the conjunction of the four signed margins."""
    xl, xh, yl, yh = box
    return And(And(Pred(xname, ">", xl), Pred(xname, "<", xh)),
               And(Pred(yname, ">", yl), Pred(yname, "<", yh)))


def planning_formula(cfg: PlannerConfig, si: SmoothInterval) -> Formula:
    return And(Always(box_formula(cfg.target_box), si), Eventually(box_formula(cfg.goal_box)))


def _planning_terms(u, a, b, cfg: PlannerConfig, temp: float, sharp: float):
    """The planning objective: a :class:`Var` from taped operands, an array
    from arrays and floats."""
    length = cfg.horizon + 1
    px, py = _rollout(cfg.start, u, cfg.dt)
    phi = planning_formula(cfg, SmoothInterval(a, b, sharp))
    sem = SemanticsConfig(mode=LogSumExp(temp))
    rho = tape.index_last(masking.trace_var(phi, {"x": px, "y": py}, length, sem), 0)

    sumsq = tape.vsum(tape.square(u), axis=-1)
    norms = tape.sqrt(sumsq + 1e-12)
    j_stl = tape.relu(tape.neg(rho))
    j_int = tape.exp((a - b + cfg.interval_nominal) * 2.0)
    j_lim = tape.vsum(tape.relu(norms - cfg.control_limit)) * (1.0 / cfg.horizon)
    j_eff = tape.vsum(sumsq) * (1.0 / cfg.horizon)
    return j_stl * cfg.gamma1 + j_int * cfg.gamma2 + j_lim * cfg.gamma3 + j_eff * cfg.gamma4


def planning_objective(controls, a_raw: float, b_raw: float, cfg: PlannerConfig,
                       temp: Optional[float] = None, sharp: Optional[float] = None) -> float:
    """Objective value at given controls and pre-sigmoid interval parameters.

    ``temp``/``sharp`` default to the end values of the config's schedules.
    """
    u = np.asarray(controls, dtype=np.float64)
    if u.shape != (cfg.horizon, 2):
        raise ValueError(f"controls must have shape ({cfg.horizon}, 2), got {u.shape}")
    temp = cfg.temp_anneal[2] if temp is None else temp
    sharp = cfg.sharp_anneal[2] if sharp is None else sharp
    a, b = _ordered_bounds(float(a_raw), float(b_raw))
    return float(_planning_terms(u, a, b, cfg, temp, sharp))


def _hard_interval(a: float, b: float, length: int) -> StepInterval:
    lo = int(math.ceil(a * length))
    hi = max(lo, int(math.floor(b * length)))
    return StepInterval(lo, hi)


def plan_trajectory(cfg: PlannerConfig = PlannerConfig(), seed: int = 0) -> dict:
    """Descend on controls and window bounds; returns the solution artifacts.

    The reported ``final_robustness`` is the hard robustness of the optimized
    specification with the smooth window rounded to ``[ceil(aL), floor(bL)]``.
    """
    u0 = np.random.default_rng(seed).normal(0.0, cfg.control_init_scale, (cfg.horizon, 2))
    (u,), (a, b), history = _descend(
        cfg, "planning objective",
        lambda a, b, temp, sharp, u: _planning_terms(u, a, b, cfg, temp, sharp), u0)
    states = rollout_single_integrator(cfg.start, u, cfg.dt)
    length = cfg.horizon + 1
    signals = NamedSignals.from_arrays({"x": states[:, 0], "y": states[:, 1]}, dt=cfg.dt)
    hard_phi = And(Always(box_formula(cfg.target_box), _hard_interval(a, b, length)),
                   Eventually(box_formula(cfg.goal_box)))
    rho_final = masking.robustness(hard_phi, signals, SemanticsConfig(mode=Hard()))
    return {
        "controls": u,
        "states": states,
        "interval": (a, b),
        "objective_history": history,
        "final_robustness": rho_final,
    }


# ---------------------------------------------------------------------------
# Interval mining
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MiningConfig:
    """Descent settings for mining the widest satisfied window from data."""

    gamma: float = 0.15
    lr: float = 1e-2
    steps: int = 5000
    init_interval: tuple[float, float] = (0.1, 0.9)
    eps: float = 0.0
    temp_anneal: Schedule = ("sigmoid", 1.0, 30.0)
    sharp_anneal: Schedule = ("sigmoid", 2.0, 50.0)

    def __post_init__(self):
        _check_finite(self)
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if not 0.0 <= self.eps < 0.5:
            raise ValueError(f"need 0 <= eps < 0.5, got {self.eps}")
        _check_descent(self.steps, self.lr, self.init_interval,
                       temp_anneal=self.temp_anneal, sharp_anneal=self.sharp_anneal)


def synth_step_dataset(seed: int, n: int = 64, length: int = 20,
                       truth: tuple[float, float] = (0.23, 0.59),
                       value_noise: float = 0.05) -> np.ndarray:
    """Noisy step signals: 1 inside the truth window, 0 outside.

    The window boundaries jitter by one sample uniformly per signal and
    Gaussian noise is added to every value.
    """
    rng = np.random.default_rng(seed)
    lo = int(math.ceil(truth[0] * length))
    hi = int(math.floor(truth[1] * length))
    data = np.zeros((n, length))
    for row in range(n):
        jlo = lo + int(rng.integers(-1, 2))
        jhi = hi + int(rng.integers(-1, 2))
        data[row, max(jlo, 0):min(jhi, length - 1) + 1] = 1.0
    data += rng.normal(0.0, value_noise, (n, length))
    return data


def _mining_dataset(dataset) -> np.ndarray:
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 2 or data.size == 0:
        raise ValueError("dataset must be a non-empty (n, length) array")
    return data


def _mining_loss_var(a, b, sharp, dataset: np.ndarray, gamma: float, cfg: SemanticsConfig,
                     eps: float = 0.0) -> Var:
    # robustness at the trace start of "always positive over the smooth
    # window": a single weighted reduction of the raw signals, no unrolling;
    # the dataset is a constant operand, so backward computes no gradient for it
    n, length = dataset.shape
    weights = masking.smooth_weights_var(SmoothInterval(a, b, sharp, eps), length)
    rho0 = tape.smooth_min(dataset, cfg.mode, weights=weights)
    loss = tape.vsum(tape.relu(tape.neg(rho0))) * (1.0 / n)
    return loss + (a - b) * gamma


def mining_objective(a: float, b: float, dataset, gamma: float, sharp: float,
                     cfg: SemanticsConfig) -> float:
    """Mean hinge violation of staying positive over the smooth window [a, b].

    ``sharp`` is the window mask sharpness (annealed during descent);
    ``cfg.mode`` supplies the reduction and its temperature.
    """
    data = _mining_dataset(dataset)
    return float(_mining_loss_var(float(a), float(b), float(sharp), data, gamma, cfg))


def mine_interval(dataset, cfg: MiningConfig = MiningConfig()) -> dict:
    """Gradient descent on sigmoid-reparameterized window bounds."""
    data = _mining_dataset(dataset)

    def loss(a, b, temp, sharp):
        sem = SemanticsConfig(mode=LogSumExp(temp))
        return _mining_loss_var(a, b, sharp, data, cfg.gamma, sem, cfg.eps)

    _, interval, history = _descend(cfg, "mining loss", loss)
    return {"interval": interval, "loss_history": history}


def grid_eval(a_grid, b_grid, objective: Callable[[float, float], float]) -> np.ndarray:
    """Dense objective matrix over an (a, b) grid; cells with a >= b are NaN."""
    a_grid = np.asarray(a_grid, dtype=np.float64)
    b_grid = np.asarray(b_grid, dtype=np.float64)
    out = np.full((a_grid.size, b_grid.size), np.nan)
    for i, a in enumerate(a_grid):
        for j, b in enumerate(b_grid):
            if a < b:
                out[i, j] = objective(float(a), float(b))
    return out
