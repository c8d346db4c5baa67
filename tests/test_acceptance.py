"""Acceptance suite: one test per criterion, run with ``pytest -v -s``.

Each test prints a single PASS line on success; tolerances and runtime
budgets are asserted inline.
"""

import time

import numpy as np

from helpers import corpus_config, equivalence_case
from stlmask.apps import (
    MiningConfig,
    PlannerConfig,
    mine_interval,
    mining_objective,
    plan_trajectory,
    synth_step_dataset,
)
from stlmask.autodiff import finite_diff_check, value_and_grad
from stlmask.bench import run_bench
from stlmask.core import (
    Hard,
    LogSumExp,
    NamedSignals,
    PaddingPolicy,
    SemanticsConfig,
    SmoothInterval,
    SoftMax,
)
from stlmask.formula import Always, And, Eventually, Pred, parse
from stlmask.masking import robustness_trace
from stlmask.recurrent import trace_recurrent
from stlmask.reference import trace_ref
from stlmask.smoothing import smooth_max


def _report(name: str, detail: str):
    print(f"PASS {name}: {detail}")


def test_criterion_1_example_regression():
    start = time.perf_counter()
    sig = NamedSignals.from_arrays({"s": np.arange(8.0)})
    f = parse("F[1,3] (s > 0)")
    got_last = robustness_trace(f, sig, SemanticsConfig(padding=PaddingPolicy.last_value()))
    got_const = robustness_trace(
        f, sig, SemanticsConfig(padding=PaddingPolicy.constant(-1e5)))
    assert got_last.tolist() == [3, 4, 5, 6, 7, 7, 7, 7]
    assert got_const.tolist() == [3, 4, 5, 6, 7, -1e5, -1e5, -1e5]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 1", f"example traces integer-exact in {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = 0
    worst_hard = 0.0
    worst_lse = 0.0
    while cases < 1000:
        f, signals = equivalence_case(rng, depth=3, max_len=40)
        cfg_hard = corpus_config(rng, Hard())
        ref = trace_ref(f, signals, cfg_hard)
        mask = robustness_trace(f, signals, cfg_hard)
        rec = trace_recurrent(f, signals, cfg_hard)
        worst_hard = max(worst_hard, np.max(np.abs(ref - mask)), np.max(np.abs(ref - rec)))

        tau = float(rng.choice([1.0, 5.0, 20.0]))
        cfg_lse = corpus_config(rng, LogSumExp(tau))
        ref_l = trace_ref(f, signals, cfg_lse)
        mask_l = robustness_trace(f, signals, cfg_lse)
        rec_l = trace_recurrent(f, signals, cfg_lse)
        worst_lse = max(worst_lse, np.max(np.abs(ref_l - mask_l)), np.max(np.abs(ref_l - rec_l)))
        cases += 1
    assert worst_hard <= 1e-9, f"hard-mode divergence {worst_hard}"
    assert worst_lse <= 1e-9, f"lse-mode divergence {worst_lse}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("criterion 2",
            f"{cases} cases, worst |err| hard={worst_hard:.2e} lse={worst_lse:.2e} "
            f"in {elapsed:.1f}s")


def test_criterion_3_softmax_pathology_and_lse_identity():
    start = time.perf_counter()
    # documented witness: seed 0, L=20, untimed eventually, softmax tau=1
    rng = np.random.default_rng(0)
    sig = NamedSignals.from_arrays({"s": rng.normal(0, 1, 20)})
    f = parse("F (s > 0)")
    cfg = SemanticsConfig(mode=SoftMax(1.0))
    gap = np.max(np.abs(trace_recurrent(f, sig, cfg) - robustness_trace(f, sig, cfg)))
    assert gap > 1e-3, f"softmax divergence witness too small: {gap}"

    ident_rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(ident_rng.integers(1, 9))
        xs = list(ident_rng.normal(0, 3, n))
        y = float(ident_rng.normal(0, 3))
        mode = LogSumExp(float(ident_rng.choice([0.5, 1.0, 5.0, 20.0])))
        nested = smooth_max([smooth_max(xs, mode), y], mode)
        flat = smooth_max(xs + [y], mode)
        worst = max(worst, abs(nested - flat))
    assert worst <= 1e-12, f"lse composition identity broke: {worst}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("criterion 3",
            f"softmax gap {gap:.3f} > 1e-3; lse nesting worst {worst:.1e} <= 1e-12 "
            f"in {elapsed:.1f}s")


def test_criterion_4_gradient_correctness():
    start = time.perf_counter()
    from helpers import random_formula

    rng = np.random.default_rng(404)
    worst = 0.0
    si = SmoothInterval(0.3, 0.65, 9.0)
    for case in range(100):
        length = int(rng.integers(3, 15))
        arrays = {"x": rng.normal(0, 1.5, length), "y": rng.normal(0, 1.5, length)}
        signals = NamedSignals.from_arrays(arrays)
        tau = float(rng.choice([1.0, 5.0, 20.0]))
        cfg = SemanticsConfig(mode=LogSumExp(tau))
        if case % 4 == 0:
            # exercise the smooth window path, including d_a and d_b
            f = And(Always(Pred("x", ">", 0.0), si),
                    Eventually(random_formula(rng, 1)))
            got = value_and_grad(f, signals, cfg)

            def probe(which, v):
                kw = {"a": si.a, "b": si.b, "c": si.c}
                kw[which] = float(v[0])
                return value_and_grad(f, signals, cfg, si=SmoothInterval(**kw)).value

            worst = max(worst,
                        finite_diff_check(lambda v: probe("a", v), [si.a], [got.d_a]),
                        finite_diff_check(lambda v: probe("b", v), [si.b], [got.d_b]))
        else:
            f = random_formula(rng, 2)
            got = value_and_grad(f, signals, cfg)
        for name in ("x", "y"):
            def fn(vec, _n=name):
                probe_arrays = dict(arrays)
                probe_arrays[_n] = vec
                return value_and_grad(f, NamedSignals.from_arrays(probe_arrays), cfg).value
            worst = max(worst, finite_diff_check(fn, arrays[name], got.d_signal[name], h=1e-5))
    assert worst < 1e-5, f"gradient check failed: max rel err {worst}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("criterion 4", f"100 cases, max rel err {worst:.2e} < 1e-5 in {elapsed:.1f}s")


def test_criterion_5_mining_reproduction():
    start = time.perf_counter()
    cfg = MiningConfig()
    assert cfg.steps == 5000 and cfg.lr == 1e-2
    hits = 0
    recovered = []
    for seed in range(20):
        res = mine_interval(synth_step_dataset(seed), cfg)
        a, b = res["interval"]
        recovered.append((a, b))
        if abs(a - 0.23) <= 0.05 and abs(b - 0.59) <= 0.05:
            hits += 1
    assert hits >= 18, f"only {hits}/20 seeds recovered the interval: {recovered}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("criterion 5", f"{hits}/20 seeds within +/-0.05 of (0.23, 0.59) in {elapsed:.0f}s")


def test_criterion_6_planning_reproduction():
    start = time.perf_counter()
    cfg = PlannerConfig()
    assert (cfg.gamma1, cfg.gamma2, cfg.gamma3, cfg.gamma4) == (1.1, 0.05, 2.0, 0.5)
    assert cfg.interval_nominal == 0.2 and cfg.control_limit == 2.0
    assert cfg.dt == 0.1 and cfg.horizon == 51
    good = 0
    outcomes = []
    for seed in range(10):
        res = plan_trajectory(cfg, seed=seed)
        rho = res["final_robustness"]
        a, b = res["interval"]
        outcomes.append((round(rho, 4), round(b - a, 3)))
        if rho >= 0.0 and (b - a) >= cfg.interval_nominal:
            good += 1
    assert good >= 8, f"only {good}/10 seeds satisfied: {outcomes}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("criterion 6",
            f"{good}/10 seeds with hard robustness >= 0 and width >= 0.2 in {elapsed:.0f}s")


def test_criterion_7_performance_direction():
    start = time.perf_counter()
    report = run_bench(sizes=(32, 64, 128, 256, 512), reps=11, batch=8, include_grad=False)
    med = {(r["formula"], r["length"], r["engine"]): r["value_median_s"]
           for r in report["results"]}
    directed = []
    for name in ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6"):
        mask_t = med[(name, 512, "masking")]
        rec_t = med[(name, 512, "recurrent")]
        directed.append(f"{name}: {mask_t*1e3:.1f}ms vs {rec_t*1e3:.1f}ms")
        assert mask_t < rec_t, f"{name} at L=512: masking {mask_t} >= recurrent {rec_t}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report("criterion 7", "; ".join(directed) + f"; total {elapsed:.0f}s")


def test_criterion_8_grid_feasibility():
    from stlmask.apps import grid_eval

    dataset = synth_step_dataset(0)
    sem = SemanticsConfig(mode=LogSumExp(30.0))
    objective = lambda a, b: mining_objective(a, b, dataset, 0.15, 50.0, sem)
    start = time.perf_counter()
    grid = grid_eval(np.linspace(0, 1, 300), np.linspace(0, 1, 300), objective)
    elapsed = time.perf_counter() - start
    valid = ~np.isnan(grid)
    assert valid.sum() == 300 * 299 // 2
    assert np.all(np.isfinite(grid[valid]))
    assert elapsed < 60.0
    _report("criterion 8",
            f"300x300 grid: {int(valid.sum())} valid cells all finite in {elapsed:.1f}s")
