import time

import numpy as np
import pytest

from helpers import CHANNELS, builds_no_var, corpus_config, equivalence_case, vars_built
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
from stlmask.masking import robustness, robustness_trace, trace_var
from stlmask.recurrent import trace_recurrent, trace_var_recurrent
from stlmask.reference import trace_ref
from stlmask.tape import Var, as_var, backward

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
                backward(as_var(build(f, channels, signals.length, cfg)), cotangent)
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


class TestConstantsAreNotTraced:
    """TRUE, constant padding and padding-only tails stay plain arrays in
    both tape engines, so backward reaches no leaf but the channels."""

    TEXTS = (
        "(x > 0) & TRUE",
        "F[0,2] TRUE | (y < 0)",
        "TRUE U (y < 0.5)",
        "(x > 0) U[1,3] TRUE",
        # padding-only tails at L = 4, where no window fits
        "G[5,8] (x > 0) | (y > 0)",
        "((x > -1) U[3,9] (y > 0.5)) | (x > 1)",
    )

    @staticmethod
    def inner_leaves(out, channels) -> list:
        """Nodes reached from ``out`` that are neither a channel nor have a vjp."""
        keep = set(map(id, channels.values()))
        found, seen, stack = [], set(), [out]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                if node._vjp is None and id(node) not in keep:
                    found.append(node)
                stack.extend(node._parents)
        return found

    @pytest.mark.parametrize("build", [trace_var, trace_var_recurrent], ids=["masked", "recurrent"])
    @pytest.mark.parametrize("mode", [Hard(), LogSumExp(5.0)])
    def test_every_reached_node_is_a_channel_or_has_a_vjp(self, build, mode):
        rng = np.random.default_rng(71)
        cases = [(parse(text), length) for text in self.TEXTS for length in (4, 12)]
        for _ in range(300):
            f, signals = equivalence_case(rng, max_len=16)
            if "TrueFormula" in repr(f):
                cases.append((f, signals.length))
        traced = 0
        for f, length in cases:
            for padding in (PaddingPolicy.constant(-0.5), PaddingPolicy.last_value()):
                channels = {name: Var(rng.normal(0, 1, length)) for name in ("x", "y")}
                out = build(f, channels, length, SemanticsConfig(mode=mode, padding=padding))
                if not isinstance(out, Var):
                    continue  # a trace that reads no channel: an array, no graph
                backward(out, rng.normal(0, 1, length))
                assert self.inner_leaves(out, channels) == [], f
                traced += 1
        assert traced > 60


class TestEvaluationBuildsNoGraph:
    """The evaluation entry points run the engines' kernels on the channel
    arrays: they construct no Var, and each trace equals the one built on Var
    channels bit for bit."""

    MODES = (Hard(), LogSumExp(0.5), LogSumExp(10.0), LogSumExp(500.0),
             SoftMax(0.5), SoftMax(2.0), SoftMax(10.0))
    PADDINGS = (PaddingPolicy.last_value(), PaddingPolicy.constant(-0.5))

    @pytest.mark.parametrize("evaluate, build, count", [
        (robustness_trace, trace_var, 120),
        (trace_recurrent, trace_var_recurrent, 60),
    ], ids=["masked", "recurrent"])
    def test_corpus_traces_equal_the_var_channel_build(self, evaluate, build, count):
        rng = np.random.default_rng(83)
        compared = 0
        for _ in range(count):
            f, signals = equivalence_case(rng, max_len=24)
            for mode in self.MODES:
                for padding in self.PADDINGS:
                    cfg = SemanticsConfig(mode=mode, padding=padding)
                    with builds_no_var():
                        got = evaluate(f, signals, cfg)
                    channels = {name: Var(signals[name].values) for name in signals.names()}
                    want = as_var(build(f, channels, signals.length, cfg)).data
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (f, cfg)
                    compared += 1
        assert compared == count * len(self.MODES) * len(self.PADDINGS)

    def test_robustness_builds_no_var(self):
        rng = np.random.default_rng(84)
        for _ in range(20):
            f, signals = equivalence_case(rng)
            with builds_no_var():
                value = robustness(f, signals, SemanticsConfig(mode=LogSumExp(5.0)))
            assert value == robustness_trace(f, signals, SemanticsConfig(mode=LogSumExp(5.0)))[0]


class TestNoWindowFits:
    """With ``b >= L`` every start takes the padding value, which the walker
    appends without calling the kernel: the recurrent engine builds the
    predicates and the padding nodes only, as the masked engine does, and
    reads no sample with ``index_last``."""

    @pytest.mark.parametrize("padding, gathers", [(PaddingPolicy.last_value(), True),
                                                  (PaddingPolicy.constant(-0.5), False)],
                             ids=["last", "constant"])
    @pytest.mark.parametrize("text, preds, tail", [
        ("F[2,8] (x > 0)", 1, 1),
        ("G[8,8] (x > 0)", 1, 1),
        ("(x > 0) U[0,9] (y < 1)", 2, 3),  # a gather per child and their hard min
    ])
    def test_builds_only_predicates_and_padding(self, text, preds, tail, padding, gathers):
        rng = np.random.default_rng(85)
        channels = {name: Var(rng.normal(0, 1, (2, 8))) for name in CHANNELS}
        cfg = SemanticsConfig(padding=padding)
        rec, rec_made = vars_built(trace_var_recurrent, parse(text), channels, 8, cfg)
        masked, masked_made = vars_built(trace_var, parse(text), channels, 8, cfg)
        assert rec_made == masked_made == preds + (tail if gathers else 0)
        np.testing.assert_array_equal(as_var(rec).data, as_var(masked).data)


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
        # engines agree on timed F and G even in softmax mode; timed U nests
        # its prefix mins pairwise, so it drifts (next test)
        rng = np.random.default_rng(44)
        sig = NamedSignals.from_arrays({"s": rng.normal(0, 1, 15)})
        f = parse("F[1,4] (s > 0)")
        cfg = SemanticsConfig(mode=SoftMax(1.0))
        np.testing.assert_allclose(trace_recurrent(f, sig, cfg),
                                   robustness_trace(f, sig, cfg), atol=1e-12)

    def test_timed_until_nests_its_prefix_mins(self):
        rng = np.random.default_rng(0)
        sig = NamedSignals.from_arrays({"x": rng.normal(0, 1, 20), "y": rng.normal(0, 1, 20)})
        f = parse("(x > 0) U[1,6] (y > 0)")
        cfg = SemanticsConfig(mode=SoftMax(1.0))
        masked = robustness_trace(f, sig, cfg)
        np.testing.assert_allclose(masked, trace_ref(f, sig, cfg), atol=1e-12)
        assert np.max(np.abs(trace_recurrent(f, sig, cfg) - masked)) > 1e-3


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
