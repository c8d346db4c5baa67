import time

import numpy as np
import pytest

from helpers import corpus_config, equivalence_case
from stlmask.bench import bench_formulas
from stlmask.core import (
    Hard,
    LogSumExp,
    NamedSignals,
    PaddingPolicy,
    SemanticsConfig,
    SmoothInterval,
    SoftMax,
)
from stlmask.formula import Always, Pred, parse
from stlmask.masking import robustness_trace, trace_var
from stlmask.recurrent import trace_recurrent, trace_var_recurrent
from stlmask.reference import trace_ref
from stlmask.tape import Var, backward

S8 = NamedSignals.from_arrays({"s": np.arange(8.0)})


class TestEquivalence:
    def test_example_fixture(self):
        np.testing.assert_array_equal(
            trace_recurrent(parse("F[1,3] (s > 0)"), S8, SemanticsConfig()),
            [3, 4, 5, 6, 7, 7, 7, 7])

    def test_hard_equals_reference_random(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            f, signals = equivalence_case(rng)
            cfg = corpus_config(rng, Hard())
            np.testing.assert_allclose(trace_recurrent(f, signals, cfg),
                                       trace_ref(f, signals, cfg), atol=1e-9)

    def test_lse_equals_reference_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            f, signals = equivalence_case(rng)
            tau = float(rng.choice([1.0, 5.0, 20.0]))
            cfg = corpus_config(rng, LogSumExp(tau))
            np.testing.assert_allclose(trace_recurrent(f, signals, cfg),
                                       trace_ref(f, signals, cfg), atol=1e-9)

    def test_lse_equals_masking_untimed_eventually(self):
        rng = np.random.default_rng(43)
        sig = NamedSignals.from_arrays({"s": rng.normal(0, 1, 20)})
        f = parse("F (s > 0)")
        cfg = SemanticsConfig(mode=LogSumExp(10.0))
        np.testing.assert_allclose(trace_recurrent(f, sig, cfg),
                                   robustness_trace(f, sig, cfg), atol=1e-9)

    def test_lse_gradients_equal_masking_random(self):
        # both engines are exact reverse-mode passes of the same function
        rng = np.random.default_rng(46)
        largest = 0.0
        for _ in range(150):
            f, signals = equivalence_case(rng)
            cfg = corpus_config(rng, LogSumExp(float(rng.choice([1.0, 5.0, 20.0]))))
            cotangent = rng.normal(0, 1, signals.length)
            grads = []
            for build in (trace_var, trace_var_recurrent):
                channels = {name: Var(signals[name].values) for name in signals.names()}
                backward(build(f, channels, signals.length, cfg), cotangent)
                grads.append(np.stack([np.zeros(signals.length) if v.grad is None else v.grad
                                       for v in channels.values()]))
            np.testing.assert_allclose(grads[1], grads[0], rtol=0, atol=1e-9)
            largest = max(largest, float(np.max(np.abs(grads[0]))))
        assert largest > 0.1

    def test_smooth_interval_rejected(self):
        f = Always(Pred("s", ">", 0.0), SmoothInterval(0.2, 0.8, 4.0))
        with pytest.raises(TypeError):
            trace_recurrent(f, S8, SemanticsConfig())


class TestLongSignals:
    """Masked vs recurrent far beyond the corpus lengths, where the masked
    until's prefix scan and the untimed suffix scans span hundreds of samples."""

    @pytest.mark.parametrize("padding", [PaddingPolicy.last_value(), PaddingPolicy.constant(-0.5)])
    @pytest.mark.parametrize("text, length", [
        ("(x > -1) U (y > 0.5)", 240),
        ("(x > -1) U[2,9] (y > 0.5)", 260),
        ("F (x > 0) & G (y < 1.5)", 300),
        # timed windows that fit no start (L <= b) or exactly one (L = b + 1)
        ("(F[2,9] (x > 0) | G[3,9] (y < 0.5)) & (y > 0)", 4),
        ("(F[2,9] (x > 0) | G[3,9] (y < 0.5)) & (y > 0)", 9),
        ("(F[2,9] (x > 0) | G[3,9] (y < 0.5)) & (y > 0)", 10),
        ("((x > -1) U[3,9] (y > 0.5)) | (x > 1)", 9),
        ("((x > -1) U[3,9] (y > 0.5)) | (x > 1)", 10),
    ])
    def test_hard_values_and_lse_gradients_agree(self, text, length, padding):
        rng = np.random.default_rng(length)
        f = parse(text)
        signals = NamedSignals.from_arrays({"x": rng.normal(0, 1, length),
                                            "y": rng.normal(0, 1, length)})
        hard = SemanticsConfig(padding=padding)
        masked = robustness_trace(f, signals, hard)
        np.testing.assert_allclose(trace_recurrent(f, signals, hard), masked, rtol=0, atol=1e-9)
        np.testing.assert_allclose(trace_ref(f, signals, hard), masked, rtol=0, atol=1e-9)
        lse = SemanticsConfig(mode=LogSumExp(5.0), padding=padding)
        cotangent = rng.normal(0, 1, length)
        grads = []
        for build in (trace_var, trace_var_recurrent):
            channels = {name: Var(signals[name].values) for name in signals.names()}
            backward(build(f, channels, length, lse), cotangent)
            grads.append(np.stack([np.zeros(length) if channels[name].grad is None
                                   else channels[name].grad for name in ("x", "y")]))
        np.testing.assert_allclose(grads[1], grads[0], rtol=0, atol=1e-9)
        assert np.max(np.abs(grads[0])) > 0.1

    @pytest.mark.parametrize("mode", [Hard(), LogSumExp(10.0), SoftMax(10.0)])
    def test_untimed_until_graph_size_is_independent_of_length(self, mode):
        def nodes(length):
            rng = np.random.default_rng(length)
            channels = {name: Var(rng.normal(0, 1, (2, length))) for name in ("x", "y")}
            seen, stack = set(), [trace_var(bench_formulas()["phi3"], channels, length,
                                            SemanticsConfig(mode=mode))]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node._parents)
            return len(seen)

        assert nodes(16) == nodes(64) == nodes(256)


class TestSoftmaxPathology:
    def test_documented_divergence_witness(self):
        # fixed seed 0: nested softmax softens early-applied (late-time)
        # values, so the recurrent untimed eventually drifts from the masked
        # single-application reduction
        rng = np.random.default_rng(0)
        sig = NamedSignals.from_arrays({"s": rng.normal(0, 1, 20)})
        f = parse("F (s > 0)")
        cfg = SemanticsConfig(mode=SoftMax(1.0))
        gap = np.max(np.abs(trace_recurrent(f, sig, cfg) - robustness_trace(f, sig, cfg)))
        assert gap > 1e-3

    def test_timed_windows_are_single_application(self):
        # sliding-buffer reductions apply softmax once per window, so the
        # engines agree on bounded operators even in softmax mode
        rng = np.random.default_rng(44)
        sig = NamedSignals.from_arrays({"s": rng.normal(0, 1, 15)})
        f = parse("F[1,4] (s > 0)")
        cfg = SemanticsConfig(mode=SoftMax(1.0))
        np.testing.assert_allclose(trace_recurrent(f, sig, cfg),
                                   robustness_trace(f, sig, cfg), atol=1e-12)


class TestScaling:
    def test_untimed_eventually_cost_grows_with_length(self):
        # coarse sanity check, generous sizes to stay robust on shared machines
        f = parse("F (s > 0)")
        cfg = SemanticsConfig()

        def cost(length):
            sig = NamedSignals.from_arrays({"s": np.linspace(0, 1, length)})
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                trace_recurrent(f, sig, cfg)
                best = min(best, time.perf_counter() - start)
            return best

        assert cost(3200) > cost(200)
