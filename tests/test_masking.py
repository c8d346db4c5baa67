import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import (
    CHANNELS,
    build_subsignal_mask,
    build_time_mask,
    build_unrolled,
    build_until_masks,
    combine_masks,
    corpus_config,
    equivalence_case,
    gathered_until,
    long_double_until,
    random_formula,
    random_signals,
)
from stlmask import masking
from stlmask.bench import bench_formulas
from stlmask.core import (
    EmptyWindowError,
    Hard,
    LogSumExp,
    NamedSignals,
    PaddingPolicy,
    SemanticsConfig,
    ShapeError,
    SmoothInterval,
    SoftMax,
    StepInterval,
    ValidationError,
)
from stlmask.formula import TRUE, Always, Eventually, Not, parse
from stlmask.masking import (
    always_trace,
    eventually_trace,
    robustness,
    robustness_trace,
    trace_var,
    until_trace,
    walk,
)
from stlmask.reference import trace_ref
from stlmask.smoothing import smooth_max, smooth_min
from stlmask.tape import Var, backward

S8 = NamedSignals.from_arrays({"s": np.arange(8.0)})
LAST = SemanticsConfig()
CONST_NEG = SemanticsConfig(padding=PaddingPolicy.constant(-1e5))


class TestMasks:
    def test_subsignal_lower_triangular(self):
        m = build_subsignal_mask(3, 3)
        np.testing.assert_array_equal(m, np.tril(np.ones((3, 3), dtype=bool)))

    def test_subsignal_with_padding_rows(self):
        m = build_subsignal_mask(8, 11)
        assert m[:, 0].all()          # column 0 keeps rows 0..10
        assert m[0, 1:].sum() == 0    # row 0 kept only by column 0

    def test_subsignal_single(self):
        np.testing.assert_array_equal(build_subsignal_mask(1, 1), [[True]])

    def test_time_mask_window_rows(self):
        m = build_time_mask(8, StepInterval(1, 3))
        assert m.shape == (11, 8)
        np.testing.assert_array_equal(np.flatnonzero(m[:, 0]), [1, 2, 3])
        np.testing.assert_array_equal(np.flatnonzero(m[:, 5]), [6, 7, 8])

    def test_time_mask_full_window(self):
        m = build_time_mask(4, StepInterval(0, 3))
        np.testing.assert_array_equal(np.flatnonzero(m[:, 0]), [0, 1, 2, 3])

    def test_time_mask_identity(self):
        m = build_time_mask(4, StepInterval(0, 0))
        np.testing.assert_array_equal(m, np.eye(4, dtype=bool))

    def test_combined_example_window(self):
        ms = build_subsignal_mask(8, 11)
        mt = build_time_mask(8, StepInterval(1, 3))
        m = combine_masks(ms, mt)
        np.testing.assert_array_equal(np.flatnonzero(m[:, 0]), [1, 2, 3])
        # every column keeps exactly the window rows
        for t in range(8):
            np.testing.assert_array_equal(np.flatnonzero(m[:, t]), [t + 1, t + 2, t + 3])

    def test_combine_shape_mismatch(self):
        with pytest.raises(ShapeError):
            combine_masks(build_subsignal_mask(3, 3), build_time_mask(3, StepInterval(0, 1)))

    def test_unrolled_columns_identical(self):
        u = build_unrolled(np.arange(3.0), 5, PaddingPolicy.constant(9.0))
        assert u.shape == (5, 3)
        np.testing.assert_array_equal(u[:, 0], [0, 1, 2, 9, 9])
        assert (u == u[:, :1]).all()

    def test_until_mask_slices(self):
        left, right = build_until_masks(8, StepInterval(1, 3))
        assert left.shape == (11, 8, 3)
        # slice k keeps rows t..t+a+k on the left, exactly t+a+k on the right
        np.testing.assert_array_equal(np.flatnonzero(left[:, 2, 1]), [2, 3, 4])
        np.testing.assert_array_equal(np.flatnonzero(right[:, 2, 1]), [4])

    def test_until_mask_untimed_clips(self):
        left, right = build_until_masks(3, None)
        assert left.shape == (3, 3, 3)
        assert not left[:, 2, 1].any()     # window past the end keeps nothing
        assert not right[:, 2, 1].any()


class TestEventuallyAlways:
    def test_example_last_value(self):
        np.testing.assert_array_equal(
            eventually_trace(np.arange(8.0), StepInterval(1, 3), LAST),
            [3, 4, 5, 6, 7, 7, 7, 7])

    def test_example_constant_sentinel(self):
        np.testing.assert_array_equal(
            eventually_trace(np.arange(8.0), StepInterval(1, 3), CONST_NEG),
            [3, 4, 5, 6, 7, -1e5, -1e5, -1e5])

    def test_untimed_suffix_max(self):
        np.testing.assert_array_equal(eventually_trace([2, 9, 4], None, LAST), [9, 9, 4])

    def test_always_window_min_with_replacement(self):
        # overrun windows take the padding value (here the last entry, 7)
        np.testing.assert_array_equal(
            always_trace(np.arange(8.0), StepInterval(1, 3), LAST),
            [1, 2, 3, 4, 5, 7, 7, 7])

    def test_untimed_suffix_min(self):
        np.testing.assert_array_equal(always_trace([2, 9, 4], None, LAST), [2, 4, 4])

    def test_single_sample_untimed(self):
        np.testing.assert_array_equal(always_trace([5.0], None, LAST), [5.0])

    def test_window_start_beyond_signal(self):
        cfg = SemanticsConfig(padding=PaddingPolicy.constant(-3.0))
        np.testing.assert_array_equal(
            eventually_trace([1.0, 2.0], StepInterval(5, 6), cfg), [-3.0, -3.0])

    def test_matches_materialized_mask_reduction(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            length = int(rng.integers(1, 15))
            inner = rng.normal(0, 2, length)
            a = int(rng.integers(0, 5))
            iv = StepInterval(a, a + int(rng.integers(0, 5)))
            mode = [Hard(), LogSumExp(3.0), SoftMax(2.0)][int(rng.integers(0, 3))]
            pad = PaddingPolicy.constant(float(rng.normal())) if rng.random() < 0.5 \
                else PaddingPolicy.last_value()
            cfg = SemanticsConfig(mode=mode, padding=pad)
            got = eventually_trace(inner, iv, cfg)
            # materialized oracle: combined mask + column reductions + the
            # overrun replacement rule
            rows = length + iv.b
            mask = combine_masks(build_subsignal_mask(length, rows),
                                 build_time_mask(length, iv))
            unrolled = build_unrolled(inner, rows, pad)
            pad_value = inner[-1] if pad.kind == "last" else pad.value
            expect = np.empty(length)
            for t in range(length):
                if t + iv.b > length - 1:
                    expect[t] = pad_value
                else:
                    expect[t] = smooth_max(unrolled[mask[:, t], t], mode)
            np.testing.assert_allclose(got, expect, atol=1e-12)


class TestUntil:
    def test_untimed_brute_force_entry(self):
        got = until_trace([1, 1, -1], [-1, 1, 1], None, LAST)
        assert got[0] == 1.0

    def test_top_until_equals_eventually(self):
        rng = np.random.default_rng(32)
        cfg = SemanticsConfig(padding=PaddingPolicy.constant(1e5))
        right = rng.normal(0, 2, 12)
        top = np.full(12, 1e5)
        np.testing.assert_array_equal(
            until_trace(top, right, None, cfg), eventually_trace(right, None, cfg))

    def test_pointwise_interval_collapses_to_min(self):
        rng = np.random.default_rng(33)
        left = rng.normal(0, 1, 9)
        np.testing.assert_array_equal(
            until_trace(left, left, StepInterval(0, 0), LAST), left)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            until_trace([1.0, 2.0], [1.0], None, LAST)

    def test_matches_materialized_3d_reduction(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            length = int(rng.integers(1, 12))
            left = rng.normal(0, 2, length)
            right = rng.normal(0, 2, length)
            use_iv = rng.random() < 0.7
            a = int(rng.integers(0, 4))
            iv = StepInterval(a, a + int(rng.integers(0, 4))) if use_iv else None
            mode = [Hard(), LogSumExp(2.0), SoftMax(1.5)][int(rng.integers(0, 3))]
            pad = PaddingPolicy.constant(float(rng.normal())) if rng.random() < 0.5 \
                else PaddingPolicy.last_value()
            cfg = SemanticsConfig(mode=mode, padding=pad)
            got = until_trace(left, right, iv, cfg)
            expect = self._materialized_until(left, right, iv, cfg)
            np.testing.assert_allclose(got, expect, atol=1e-9)

    @staticmethod
    def _materialized_until(left, right, iv, cfg):
        length = len(left)
        mode = cfg.mode
        mask_l, mask_r = build_until_masks(length, iv)
        rows = mask_l.shape[0]
        pad_l = build_unrolled(left, rows, cfg.padding)
        pad_r = build_unrolled(right, rows, cfg.padding)
        if iv is not None:
            pv = min(pad_l[-1, 0] if iv.b else left[-1], pad_r[-1, 0] if iv.b else right[-1])
        expect = np.empty(length)
        for t in range(length):
            if iv is not None and t + iv.b > length - 1:
                expect[t] = pv
                continue
            terms = []
            for k in range(mask_l.shape[2]):
                if not mask_l[:, t, k].any():
                    continue
                pm = smooth_min(pad_l[mask_l[:, t, k], t], mode)
                rv = pad_r[mask_r[:, t, k], t][0]
                terms.append(smooth_min([pm, rv], mode))
            expect[t] = smooth_max(terms, mode)
        return expect


def gathered_untimed_until(left, right, length, iv, cfg):
    """The until kernel with untimed hard and log-sum-exp until as one
    square gather, the formulation the scan and the start-row tiles replace."""
    if iv is None and not isinstance(cfg.mode, SoftMax):
        return gathered_until(left, right, length, cfg.mode)
    return masking._until_var(left, right, length, iv, cfg)


def trace_and_grads(f, arrays, length, cfg, until, cotangent):
    channels = {name: Var(arrays[name]) for name in CHANNELS}
    out = walk(f, channels, length, cfg, masking._ev_always_var, until)
    backward(out, cotangent)
    grads = [np.zeros(length) if channels[n].grad is None else channels[n].grad for n in CHANNELS]
    return out.data, np.stack(grads)


class TestUntimedUntil:
    @pytest.mark.parametrize("hard,ties", [(True, False), (True, True), (False, False)],
                             ids=["hard", "hard-tied", "lse"])
    def test_corpus_matches_gather(self, hard, ties):
        # hard values and subgradients bit for bit; LSE to the summation order
        rng = np.random.default_rng(35 + ties + 2 * (not hard))
        for _ in range(150):
            f, signals = equivalence_case(rng)
            arrays = {name: signals[name].values for name in CHANNELS}
            if ties:
                arrays = {name: np.round(v) for name, v in arrays.items()}
            mode = Hard() if hard else LogSumExp(float(rng.choice([0.5, 10.0, 500.0])))
            cfg = corpus_config(rng, mode)
            g = rng.normal(0, 1, signals.length)
            got = trace_and_grads(f, arrays, signals.length, cfg, masking._until_var, g)
            expect = trace_and_grads(f, arrays, signals.length, cfg, gathered_untimed_until, g)
            for x, y in zip(got, expect):
                if hard:
                    assert np.array_equal(x, y), f
                else:
                    np.testing.assert_allclose(x, y, rtol=0, atol=1e-12, err_msg=str(f))

    @staticmethod
    def lse_case(length, tau):
        rng = np.random.default_rng(length)
        x0, y0 = rng.normal(0, 2, (2, length)), rng.normal(0, 2, (2, length))
        g = rng.normal(0, 1, (2, length))
        return x0, y0, g, long_double_until(x0, y0, tau, g)

    @staticmethod
    def value_and_grads(build, x0, y0, g):
        left, right = Var(x0), Var(y0)
        out = build(left, right)
        backward(out, g)
        return out.data, left.grad, right.grad

    @pytest.mark.parametrize("tau", [0.5, 10.0, 500.0])
    @pytest.mark.parametrize("length", [1, 5, 8, 9, 63, 240, 512])
    def test_lse_until_node_matches_references(self, length, tau):
        x0, y0, g, exact = self.lse_case(length, tau)
        cfg = SemanticsConfig(mode=LogSumExp(tau))
        got = self.value_and_grads(lambda l, r: masking._until_var(l, r, length, None, cfg), x0, y0, g)
        for x, y in zip(got, exact):
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-13)
        # at tau=500 the gather's own gradient error reaches 1.3e-12 (L=63),
        # so there the long-double reference alone is the yardstick
        if tau <= 10.0:
            gather = self.value_and_grads(lambda l, r: gathered_until(l, r, length, cfg.mode), x0, y0, g)
            for x, y in zip(got, gather):
                np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tau", [0.5, 10.0])
    @pytest.mark.parametrize("length", [1, 5, 8, 9, 63, 240, 512])
    def test_gather_matches_long_double(self, length, tau):
        x0, y0, g, exact = self.lse_case(length, tau)
        gather = self.value_and_grads(lambda l, r: gathered_until(l, r, length, LogSumExp(tau)), x0, y0, g)
        for x, y in zip(gather, exact):
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-13)

    def test_lse_gradient_memory_is_bounded(self):
        # the vjp recomputes the windows per start-row tile instead of
        # keeping them: one (8, 1024, 1024) float64 array is 64 MB
        rng = np.random.default_rng(39)
        channels = {name: Var(rng.normal(0, 1, (8, 1024))) for name in ("x", "y")}
        tracemalloc.start()
        try:
            out = trace_var(bench_formulas()["phi3"], channels, 1024, SemanticsConfig(mode=LogSumExp(10.0)))
            backward(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_softmax_gradient_memory_is_bounded(self):
        # one window reduction per offset kept (8, 128, k) windows for every
        # k, a 273 MB peak; the running scan keeps the (8, 128, 128) square
        rng = np.random.default_rng(40)
        channels = {name: Var(rng.normal(0, 1, (8, 128))) for name in ("x", "y")}
        tracemalloc.start()
        try:
            out = trace_var(bench_formulas()["phi3"], channels, 128, SemanticsConfig(mode=SoftMax(10.0)))
            backward(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_hard_memory_is_linear_in_length(self):
        # the square gather's peak grows with L**2: 1.45 GB already at L=2048
        rng = np.random.default_rng(38)
        channels = {name: Var(rng.normal(0, 1, (8, 8192))) for name in ("x", "y")}
        tracemalloc.start()
        try:
            trace_var(bench_formulas()["phi3"], channels, 8192, SemanticsConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20


class TestRobustnessTrace:
    def test_example_formula(self):
        np.testing.assert_array_equal(
            robustness_trace(parse("F[1,3] (s > 0)"), S8, LAST), [3, 4, 5, 6, 7, 7, 7, 7])

    def test_negated_predicate(self):
        sig = NamedSignals.from_arrays({"s": [0.0, 2.0]})
        np.testing.assert_array_equal(
            robustness_trace(parse("~(s > 1)"), sig, LAST), [1.0, -1.0])

    def test_conjunction_matches_oracle(self):
        sig = NamedSignals.from_arrays({"s": [1.0, 6.0, 2.0]})
        f = parse("G (s > 0) & F (s > 5)")
        np.testing.assert_allclose(robustness_trace(f, sig, LAST),
                                   trace_ref(f, sig, LAST), atol=1e-12)

    def test_robustness_is_trace_head(self):
        assert robustness(parse("F[1,3] (s > 0)"), S8, LAST) == 3.0
        assert robustness(TRUE, S8, LAST) == 1e5

    def test_missing_variable(self):
        with pytest.raises(ValidationError):
            robustness_trace(parse("q > 0"), S8, LAST)

    def test_trace_length_preserved(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            f, signals = equivalence_case(rng, depth=3, max_len=12)
            cfg = corpus_config(rng, Hard())
            assert robustness_trace(f, signals, cfg).shape == (signals.length,)

    def test_negation_and_duality(self):
        rng = np.random.default_rng(36)
        for _ in range(25):
            signals = random_signals(rng, 14)
            child = random_formula(rng, 1)
            iv = StepInterval(int(rng.integers(0, 4)), int(rng.integers(4, 8)))
            for mode in (Hard(), LogSumExp(4.0)):
                cfg = SemanticsConfig(mode=mode)
                np.testing.assert_allclose(
                    robustness_trace(Not(child), signals, cfg),
                    -robustness_trace(child, signals, cfg), atol=0)
                np.testing.assert_allclose(
                    robustness_trace(Always(child, iv), signals, cfg),
                    -robustness_trace(Eventually(Not(child), iv), signals, cfg), atol=0)

    def test_smooth_to_hard_bound_lse(self):
        rng = np.random.default_rng(37)
        for tau in (1.0, 10.0, 100.0):
            for _ in range(20):
                length = int(rng.integers(1, 20))
                inner = rng.normal(0, 2, length)
                hard = eventually_trace(inner, None, SemanticsConfig())
                soft = eventually_trace(inner, None, SemanticsConfig(mode=LogSumExp(tau)))
                n = np.arange(length, 0, -1)  # suffix window sizes
                assert np.all(soft >= hard - 1e-12)
                assert np.all(soft <= hard + np.log(n) / tau + 1e-12)

    def test_softmax_containment(self):
        rng = np.random.default_rng(38)
        for tau in (0.5, 5.0, 50.0):
            inner = rng.normal(0, 3, 15)
            soft = eventually_trace(inner, None, SemanticsConfig(mode=SoftMax(tau)))
            hard_max_tr = eventually_trace(inner, None, SemanticsConfig())
            hard_min_tr = always_trace(inner, None, SemanticsConfig())
            assert np.all(soft <= hard_max_tr + 1e-9)
            assert np.all(soft >= hard_min_tr - 1e-9)

    def test_smooth_interval_matches_reference(self):
        rng = np.random.default_rng(45)
        for _ in range(15):
            length = int(rng.integers(2, 18))
            sig = NamedSignals.from_arrays({"x": rng.normal(0, 1, length),
                                            "y": rng.normal(0, 1, length)})
            a = float(rng.uniform(0.05, 0.5))
            si = SmoothInterval(a, float(rng.uniform(a + 0.1, 1.0)),
                                float(rng.uniform(2.0, 30.0)))
            node = Always if rng.random() < 0.5 else Eventually
            f = node(random_formula(rng, 1, until_ok=False), si)
            pad = PaddingPolicy.constant(float(rng.normal())) if rng.random() < 0.5 \
                else PaddingPolicy.last_value()
            for mode in (Hard(), LogSumExp(4.0), SoftMax(2.0)):
                cfg = SemanticsConfig(mode=mode, padding=pad, top_value=100.0)
                np.testing.assert_allclose(robustness_trace(f, sig, cfg),
                                           trace_ref(f, sig, cfg), atol=1e-9)

    def test_smooth_interval_empty_window_raises(self):
        sig = NamedSignals.from_arrays({"s": np.ones(10)})
        si = SmoothInterval(0.49, 0.51, 0.5, eps=0.3)
        with pytest.raises(EmptyWindowError):
            robustness_trace(Always(parse("s > 0"), si), sig, LAST)

    @pytest.mark.parametrize("mode", [Hard(), LogSumExp(5.0), SoftMax(2.0)])
    @pytest.mark.parametrize("text", ["(x > 0) U (y > 0)", "(x > 0) U[2,4] (y > 0)",
                                      "F G (x > 0)"])
    def test_graph_is_freed_by_reference_counting(self, text, mode):
        # a node reachable from its own vjp would keep the whole graph
        # alive until the cycle collector runs
        rng = np.random.default_rng(5)
        channels = {name: Var(rng.normal(0, 1, (2, 12))) for name in ("x", "y")}
        gc.disable()
        try:
            out = trace_var(parse(text), channels, 12, SemanticsConfig(mode=mode))
            backward(out)
            inner, stack = [], [out]
            while stack:
                node = stack.pop()
                if node._vjp is not None:
                    inner.append(weakref.ref(node.data))
                    stack.extend(node._parents)
            del out, node, stack
            assert all(data() is None for data in inner)
        finally:
            gc.enable()

    def test_smooth_interval_until_rejected(self):
        with pytest.raises(TypeError):
            until_trace([1.0, 2.0], [1.0, 2.0], SmoothInterval(0.2, 0.8, 4.0), LAST)

