import math

import numpy as np
import pytest

from helpers import builds_no_var
from stlmask import apps
from stlmask.apps import (
    MiningConfig,
    _mining_loss_var,
    PlannerConfig,
    box_formula,
    grid_eval,
    mine_interval,
    mining_objective,
    plan_trajectory,
    planning_objective,
    rollout_single_integrator,
    synth_step_dataset,
)
from stlmask.autodiff import finite_diff_check
from stlmask.core import (
    DivergedError,
    Hard,
    LogSumExp,
    NamedSignals,
    SemanticsConfig,
    SmoothInterval,
    SoftMax,
)
from stlmask.masking import robustness
from stlmask.formula import Always, Pred
from stlmask.tape import Var, backward


class TestRollout:
    def test_single_step(self):
        states = rollout_single_integrator((0.0, 0.0), [(1.0, 0.0)], 0.1)
        np.testing.assert_allclose(states, [[0.0, 0.0], [0.1, 0.0]])

    def test_zero_controls_constant(self):
        states = rollout_single_integrator((2.0, -1.0), np.zeros((5, 2)), 0.1)
        assert (states == states[0]).all()

    def test_accumulates(self):
        states = rollout_single_integrator((0.0, 0.0), [(1.0, 1.0)] * 10, 0.1)
        np.testing.assert_allclose(states[-1], [1.0, 1.0])


class TestPlanningObjective:
    def test_violated_start_outside_regions(self):
        cfg = PlannerConfig()
        u = np.zeros((cfg.horizon, 2))
        val = planning_objective(u, -1.0, 1.0, cfg)
        # stationary at the origin violates the spec, so the hinge is active
        assert val > cfg.gamma1 * 0.5

    def test_limit_term_inactive_for_small_controls(self):
        cfg = PlannerConfig(gamma1=0.0, gamma2=0.0, gamma4=0.0)
        u = np.full((cfg.horizon, 2), 0.3)
        assert planning_objective(u, -1.0, 1.0, cfg) == pytest.approx(0.0, abs=1e-9)

    def test_limit_term_activates(self):
        cfg = PlannerConfig(gamma1=0.0, gamma2=0.0, gamma4=0.0)
        u = np.full((cfg.horizon, 2), 3.0)
        assert planning_objective(u, -1.0, 1.0, cfg) > 1.0

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            planning_objective(np.zeros((3, 2)), 0.0, 1.0, PlannerConfig())

    def test_builds_no_var_and_equals_the_taped_build(self):
        cfg = PlannerConfig(horizon=12)
        rng = np.random.default_rng(91)
        for scale in (0.3, 2.0):
            u = rng.normal(0.0, scale, (cfg.horizon, 2))
            for a_raw, b_raw in ((-1.5, 1.0), (0.3, -0.2)):
                for temp, sharp in ((3.0, 0.1), (100.0, 35.0)):
                    with builds_no_var():
                        got = planning_objective(u, a_raw, b_raw, cfg, temp, sharp)
                    a, b = apps._ordered_bounds(Var(a_raw), Var(b_raw))
                    assert got == float(apps._planning_terms(Var(u), a, b, cfg, temp, sharp).data)

    @pytest.mark.parametrize("weights", [{}, {"gamma1": 0.0, "gamma2": 0.0, "gamma4": 0.0}],
                             ids=["all_terms", "limit_term"])
    def test_gradient_matches_finite_differences(self, weights):
        # controls past the limit give the limit term's sqrt and relu a gradient
        cfg = PlannerConfig(horizon=8, **weights)
        temp, sharp, a_raw, b_raw = 10.0, 4.0, -1.2, 1.4
        u0 = np.random.default_rng(92).normal(0.0, 1.5, (cfg.horizon, 2))
        margins = np.linalg.norm(u0, axis=1) - cfg.control_limit
        assert margins.max() > 0.1 and np.abs(margins).min() > 0.05  # clear of the relu kink
        u, alpha, beta = Var(u0), Var(a_raw), Var(b_raw)
        backward(apps._planning_terms(u, *apps._ordered_bounds(alpha, beta), cfg, temp, sharp))
        assert np.max(np.abs(u.grad)) > 0.1

        def objective(x):
            return planning_objective(x[:-2].reshape(u0.shape), x[-2], x[-1], cfg, temp, sharp)

        x0 = np.concatenate([u0.reshape(-1), [a_raw, b_raw]])
        analytic = np.concatenate([u.grad.reshape(-1), [float(alpha.grad), float(beta.grad)]])
        assert finite_diff_check(objective, x0, analytic, h=1e-6) < 1e-6


class TestPlanTrajectory:
    def test_short_run_is_deterministic(self):
        cfg = PlannerConfig(steps=40)
        r1 = plan_trajectory(cfg, seed=5)
        r2 = plan_trajectory(cfg, seed=5)
        assert r1["objective_history"] == r2["objective_history"]
        np.testing.assert_array_equal(r1["controls"], r2["controls"])

    def test_effort_only_shrinks_controls(self):
        # per-step decay is 1 - lr*gamma4*2/T, so the shrink needs some steps
        cfg = PlannerConfig(gamma1=0.0, steps=1500, lr=0.1)
        res = plan_trajectory(cfg, seed=1)
        assert np.abs(res["controls"]).max() < 0.02

    def test_full_run_satisfies_spec(self):
        cfg = PlannerConfig()
        res = plan_trajectory(cfg, seed=0)
        assert res["final_robustness"] >= 0.0
        a, b = res["interval"]
        assert b - a >= cfg.interval_nominal
        # the returned trajectory really visits both boxes during the window
        states = res["states"]
        sig = NamedSignals.from_arrays({"x": states[:, 0], "y": states[:, 1]}, dt=cfg.dt)
        assert robustness(box_formula(cfg.goal_box), sig,
                          SemanticsConfig()) <= res["final_robustness"] + 1e5


class TestMiningObjective:
    def test_zero_loss_inside_clean_region(self):
        data = np.zeros((8, 20))
        data[:, 5:12] = 1.0
        cfg = SemanticsConfig(mode=LogSumExp(50.0))
        val = mining_objective(0.3, 0.5, data, 0.0, 200.0, cfg)
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_positive_loss_full_window_on_dipping_data(self):
        data = np.zeros((8, 20))
        data[:, 5:12] = 1.0
        data[:, 0] = -0.5
        cfg = SemanticsConfig(mode=LogSumExp(50.0))
        assert mining_objective(0.0, 1.0, data, 0.0, 200.0, cfg) > 0.1

    def test_matches_per_signal_engine_evaluation(self):
        rng = np.random.default_rng(60)
        data = synth_step_dataset(7, n=6)
        cfg = SemanticsConfig(mode=LogSumExp(8.0))
        for a, b, c in [(0.3, 0.6, 12.0), (0.1, 0.9, 5.0)]:
            fast = mining_objective(a, b, data, 0.2, c, cfg)
            phi = Always(Pred("s", ">", 0.0), SmoothInterval(a, b, c))
            slow = np.mean([
                max(-robustness(phi, NamedSignals.from_arrays({"s": row}), cfg), 0.0)
                for row in data]) + 0.2 * (a - b)
            assert fast == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("mode", [Hard(), LogSumExp(0.5), LogSumExp(10.0), LogSumExp(500.0),
                                      SoftMax(0.5), SoftMax(2.0), SoftMax(10.0)], ids=repr)
    def test_builds_no_var_and_equals_the_taped_build(self, mode):
        data = synth_step_dataset(4, n=8)
        cfg = SemanticsConfig(mode=mode)
        for a, b in ((0.1, 0.5), (0.3, 0.9), (0.0, 1.0)):
            for sharp in (5.0, 50.0):
                with builds_no_var():
                    got = mining_objective(a, b, data, 0.15, sharp, cfg)
                assert got == float(_mining_loss_var(Var(a), Var(b), sharp, data, 0.15, cfg).data)

    def test_dataset_is_a_constant_operand(self):
        data = synth_step_dataset(3, n=5)
        cfg = SemanticsConfig(mode=LogSumExp(8.0))
        results = []
        for dataset in (data, Var(data)):
            av, bv = Var(0.3), Var(0.6)
            loss = _mining_loss_var(av, bv, 12.0, dataset, 0.2, cfg)
            backward(loss)
            results.append((loss.data, av.grad, bv.grad))
            nodes, stack = [], [loss]
            while stack:
                nodes.append(stack.pop())
                stack.extend(nodes[-1]._parents)
            if not isinstance(dataset, Var):
                # no node holds the dataset: the reduction's only parent is its weights
                assert not any(node.data.shape == data.shape for node in nodes)
        # taping the dataset changed nothing but the gradient nobody read
        for got, expect in zip(*results):
            assert np.array_equal(got, expect)

    @pytest.mark.parametrize("shape", [(5,), (0, 20), (3, 0), (2, 3, 4)],
                             ids=["1d", "no_rows", "no_samples", "3d"])
    @pytest.mark.parametrize("run", [
        lambda d: mining_objective(0.2, 0.8, d, 0.1, 10.0, SemanticsConfig()),
        lambda d: mine_interval(d, MiningConfig(steps=2)),
    ], ids=["objective", "mine"])
    def test_rejects_bad_dataset(self, run, shape):
        with pytest.raises(ValueError, match="non-empty \\(n, length\\) array"):
            run(np.zeros(shape))


class TestSynthDataset:
    def test_shape_and_determinism(self):
        d1 = synth_step_dataset(3)
        d2 = synth_step_dataset(3)
        np.testing.assert_array_equal(d1, d2)
        assert d1.shape == (64, 20)

    def test_step_structure(self):
        data = synth_step_dataset(1, value_noise=0.0)
        # interior of the truth window is high for every jittered signal
        assert (data[:, 6:11] == 1.0).all()
        assert (data[:, :4] == 0.0).all()
        assert (data[:, 13:] == 0.0).all()


class TestMineInterval:
    def test_recovers_truth_single_seed(self):
        res = mine_interval(synth_step_dataset(0), MiningConfig())
        a, b = res["interval"]
        assert abs(a - 0.23) <= 0.05
        assert abs(b - 0.59) <= 0.05
        assert len(res["loss_history"]) == MiningConfig().steps

    def test_determinism(self):
        cfg = MiningConfig(steps=60)
        data = synth_step_dataset(2)
        r1 = mine_interval(data, cfg)
        r2 = mine_interval(data, cfg)
        assert r1["loss_history"] == r2["loss_history"]
        assert r1["interval"] == r2["interval"]

    def test_noiseless_init_at_truth_stays(self):
        data = np.zeros((16, 20))
        data[:, 5:12] = 1.0
        cfg = MiningConfig(gamma=0.0, steps=300, init_interval=(0.3, 0.5))
        a, b = mine_interval(data, cfg)["interval"]
        # with no widening reward and satisfied start, drift stays tiny
        assert 0.23 - 0.05 <= a <= 0.5
        assert 0.3 <= b <= 0.59 + 0.05

    def test_large_gamma_overwidens(self):
        data = synth_step_dataset(0)
        cfg = MiningConfig(gamma=1.0, steps=1500)
        a, b = mine_interval(data, cfg)["interval"]
        assert (b - a) > (0.59 - 0.23) + 0.05


@pytest.mark.parametrize("run", [
    lambda: plan_trajectory(PlannerConfig(steps=5, init_interval=(0.4, 0.4))),
    lambda: mine_interval(synth_step_dataset(0), MiningConfig(steps=5, init_interval=(0.4, 0.4))),
], ids=["plan", "mine"])
def test_closed_interval_raises_diverged_with_step(run):
    # alpha == beta gives a == b, which the ordering alone cannot prevent
    with pytest.raises(DivergedError, match="at step 0"):
        run()


@pytest.mark.parametrize("loss_name, run, wording", [
    ("_planning_terms", lambda: plan_trajectory(PlannerConfig(steps=6)), "planning objective"),
    ("_mining_loss_var", lambda: mine_interval(synth_step_dataset(0), MiningConfig(steps=6)),
     "mining loss"),
], ids=["plan", "mine"])
def test_non_finite_loss_raises_diverged_with_step(monkeypatch, loss_name, run, wording):
    original, calls = getattr(apps, loss_name), []

    def loss(*args):
        calls.append(args)
        total = original(*args)
        return total * math.nan if len(calls) == 4 else total

    monkeypatch.setattr(apps, loss_name, loss)
    with pytest.raises(DivergedError, match=f"^{wording} became nan at step 3$"):
        run()
    assert len(calls) == 4


@pytest.mark.parametrize("setting, value", [
    ("steps", 0), ("steps", -3), ("lr", 0.0), ("lr", -1.0), ("lr", math.inf), ("lr", math.nan),
])
@pytest.mark.parametrize("config", [PlannerConfig, MiningConfig], ids=["plan", "mine"])
def test_rejects_bad_descent_setting(config, setting, value):
    with pytest.raises(ValueError, match=setting):
        config(**{setting: value})


@pytest.mark.parametrize("config, setting, value", [
    (PlannerConfig, "gamma1", math.nan),
    (PlannerConfig, "gamma2", math.inf),
    (PlannerConfig, "gamma3", math.nan),
    (PlannerConfig, "gamma4", -math.inf),
    (PlannerConfig, "control_limit", math.inf),
    (PlannerConfig, "target_box", (0.8, math.nan, 0.8, 1.2)),
    (PlannerConfig, "goal_box", (1.8, 2.2, 1.8, math.inf)),
    (PlannerConfig, "start", (math.inf, 0.0)),
    (PlannerConfig, "control_init_scale", math.inf),
    (PlannerConfig, "temp_anneal", ("linear", 1.0, math.inf)),
    (MiningConfig, "gamma", math.nan),
    (MiningConfig, "sharp_anneal", ("sigmoid", math.inf, 50.0)),
])
def test_rejects_non_finite_setting(config, setting, value):
    with pytest.raises(ValueError, match=f"{setting}.*finite"):
        config(**{setting: value})


class TestGridEval:
    def test_valid_cells_only(self):
        calls = []

        def obj(a, b):
            calls.append((a, b))
            return a + b

        grid = grid_eval([0.2, 0.6], [0.4, 0.8], obj)
        assert len(calls) == 3  # (0.2,0.4), (0.2,0.8), (0.6,0.8)
        assert np.isnan(grid[1, 0])
        assert grid[0, 0] == pytest.approx(0.6)

    def test_landscape_matches_hard_discrete_oracle(self):
        # smooth objective at high sharpness vs brute-force hard windows
        data = synth_step_dataset(5)
        gamma = 0.1
        sem = SemanticsConfig(mode=LogSumExp(60.0))
        sharp = 400.0

        def smooth_obj(a, b):
            return mining_objective(a, b, data, gamma, sharp, sem)

        def hard_obj(a, b):
            lo, hi = math.ceil(a * 20), math.floor(b * 20)
            hi = min(hi, 19)
            if lo > hi:
                lo = hi
            window = data[:, lo:hi + 1]
            return float(np.mean(np.maximum(-window.min(axis=1), 0.0)) + gamma * (a - b))

        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(300):
            a = float(rng.uniform(0.02, 0.9))
            b = float(rng.uniform(a + 0.05, 1.0))
            # stay away from sample boundaries where the conventions differ
            if min(abs(a * 20 - round(a * 20)), abs(b * 20 - round(b * 20))) < 0.15:
                continue
            assert abs(smooth_obj(a, b) - hard_obj(a, b)) < 0.05
            checked += 1
        assert checked > 150
