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
from stlmask import masking, tape
from stlmask.bench import bench_formulas
from stlmask.core import (
    EmptyWindowError,
    Hard,
    InvalidIntervalError,
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
from stlmask.formula import TRUE, Always, Eventually, Not, Pred, parse
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


def gathered_ev_always(child, iv, cfg, sign, weights):
    """The timed ``F``/``G`` kernel before binary lifting: one reduction of
    the gathered ``(L - b, b - a + 1)`` windows."""
    if not isinstance(iv, StepInterval):
        return masking._ev_always_var(child, iv, cfg, sign, weights)
    starts = np.arange(child.shape[-1] - iv.b)
    windows = tape.take_last(child, starts[:, None] + np.arange(iv.a, iv.b + 1))
    return masking._reduce(windows, sign, cfg)


def lse_long_double(x, a, b, tau, sign):
    """``sign * logsumexp(sign * tau * window) / tau`` of every window that
    fits, summed in long double."""
    xs = np.asarray(x, dtype=np.longdouble) * (sign * tau)
    starts = x.shape[-1] - b
    windows = np.stack([xs[..., t + a:t + b + 1] for t in range(starts)], axis=-2)
    m = windows.max(axis=-1, keepdims=True)
    return sign * (np.log(np.exp(windows - m).sum(axis=-1)) + m[..., 0]) / tau


class TestLiftedWindows:
    """Timed ``F``/``G`` by binary lifting in hard and log-sum-exp mode,
    against the gathered reduction it replaced, the materialized masks and a
    long-double log-sum-exp."""

    PADDINGS = (PaddingPolicy.last_value(), PaddingPolicy.constant(0.75))

    @staticmethod
    def signal(rng, length, ties):
        if ties:
            return rng.integers(0, 3, (2, length)) * 0.5
        return rng.normal(0, 1, (2, length))

    @staticmethod
    def traced(kernel, f, x0, cfg, cotangent):
        x = Var(x0)
        out = walk(f, {"x": x}, x0.shape[-1], cfg, kernel, masking._until_var)
        backward(out, cotangent)
        return out.data, x.grad

    @pytest.mark.parametrize("a", [0, 3, 100])
    @pytest.mark.parametrize("width", [1, 2, 3, 6, 7, 8, 201, 801])
    def test_matches_gather_masks_and_long_double(self, width, a):
        rng = np.random.default_rng(width * 1000 + a)
        iv = StepInterval(a, a + width - 1)
        fits = 41  # windows that fit; the other starts take the padding
        length = iv.b + fits
        for ties in (False, True):
            x0 = self.signal(rng, length, ties)
            cotangent = rng.normal(0, 1, x0.shape)
            for node, sign in ((Eventually, 1.0), (Always, -1.0)):
                f = node(Pred("x", ">", 0.0), iv)
                for pad in self.PADDINGS:
                    for mode in (Hard(), LogSumExp(0.5), LogSumExp(10.0)):
                        cfg = SemanticsConfig(mode=mode, padding=pad)
                        value, grad = self.traced(masking._ev_always_var, f, x0, cfg, cotangent)
                        old_value, old_grad = self.traced(gathered_ev_always, f, x0, cfg, cotangent)
                        assert np.array_equal(value[..., fits:], old_value[..., fits:])
                        if isinstance(mode, Hard):
                            assert np.array_equal(value, old_value)
                            # the same entries, summed in another order
                            assert np.array_equal(grad != 0, old_grad != 0)
                            np.testing.assert_allclose(grad, old_grad, rtol=0, atol=1e-13)
                            self.check_masks(x0[0], iv, pad, sign, value[0])
                        else:
                            exact = lse_long_double(x0, iv.a, iv.b, mode.temp, sign)
                            scale = np.max(np.abs(exact))
                            assert np.max(np.abs(value[..., :fits] - exact)) <= 1e-12 * scale
                            np.testing.assert_allclose(grad, old_grad, rtol=0,
                                                       atol=1e-12 * np.max(np.abs(old_grad)))

    @staticmethod
    def check_masks(x, iv, pad, sign, value):
        """Hard values equal the reductions over the materialized masks."""
        length = x.size
        rows = length + iv.b
        mask = combine_masks(build_subsignal_mask(length, rows), build_time_mask(length, iv))
        unrolled = build_unrolled(x, rows, pad)
        pad_value = x[-1] if pad.kind == "last" else pad.value
        reduce = np.max if sign > 0 else np.min
        expect = [reduce(unrolled[mask[:, t], t]) if t + iv.b < length else pad_value
                  for t in range(length)]
        assert np.array_equal(value, expect)

    def test_hard_ties_route_to_the_first_extremal_entry(self):
        x = Var(np.array([1.0, 2.0, 2.0, 0.0, 2.0, 1.0, 1.0, 0.0]))
        out = trace_var(Eventually(Pred("x", ">", 0.0), StepInterval(0, 6)), {"x": x}, 8, LAST)
        backward(out, np.array([1.0, 10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        # windows [0, 6] and [1, 7] both peak first at entry 1
        np.testing.assert_array_equal(x.grad, [0.0, 11.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_softmax_keeps_the_gathered_reduction(self):
        rng = np.random.default_rng(41)
        x0 = rng.normal(0, 1, (2, 30))
        f = Always(Pred("x", ">", 0.0), StepInterval(2, 9))
        cfg = SemanticsConfig(mode=SoftMax(2.0))
        cotangent = rng.normal(0, 1, x0.shape)
        got = self.traced(masking._ev_always_var, f, x0, cfg, cotangent)
        want = self.traced(gathered_ev_always, f, x0, cfg, cotangent)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    def test_wide_window_value_memory_does_not_grow_with_the_width(self):
        # the gathered (8, 7392, 801) windows alone were 379 MB
        x = np.random.default_rng(42).normal(0, 1, (8, 8192))
        tracemalloc.start()
        try:
            walk(Always(Pred("x", ">", 0.0), StepInterval(0, 800)), {"x": x}, 8192,
                 LAST, masking._ev_always_var, masking._until_var)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


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


class TestTraceArguments:
    def test_two_or_more_dimensions_rejected(self):
        # a (2, 2) trace is not four samples
        with pytest.raises(ShapeError):
            until_trace(np.ones((2, 2)), np.ones(4), None, LAST)
        with pytest.raises(ShapeError):
            until_trace(np.ones(4), np.ones((4, 1)), StepInterval(0, 1), LAST)
        for op in (eventually_trace, always_trace):
            for shape in ((2, 3), (1, 1, 4)):
                with pytest.raises(ShapeError):
                    op(np.ones(shape), StepInterval(0, 1), LAST)

    def test_interval_that_is_not_an_interval_rejected(self):
        # a tuple is not read as [a, b]: it fails before any kernel runs
        for op in (eventually_trace, always_trace):
            with pytest.raises(InvalidIntervalError):
                op([1.0, 2.0, 3.0], (0, 2), LAST)
        with pytest.raises(InvalidIntervalError):
            until_trace([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], (0, 2), LAST)

    def test_scalar_is_one_sample(self):
        for op in (eventually_trace, always_trace):
            np.testing.assert_array_equal(op(-2.5, StepInterval(0, 3), CONST_NEG), [-1e5])
            np.testing.assert_array_equal(op(-2.5, None, LAST), [-2.5])
        np.testing.assert_array_equal(until_trace(1.0, 3.0, None, LAST), [1.0])


def gathered_untimed_until(left, right, iv, cfg):
    """The until kernel with untimed hard and log-sum-exp until as one
    square gather, the formulation the scan and the start-row tiles replace."""
    if iv is None and not isinstance(cfg.mode, SoftMax):
        return gathered_until(left, right, left.shape[-1], cfg.mode)
    return masking._until_var(left, right, iv, cfg)


def trace_and_grads(f, arrays, length, cfg, until, cotangent):
    channels = {name: Var(arrays[name]) for name in CHANNELS}
    out = walk(f, channels, length, cfg, masking._ev_always_var, until)
    if isinstance(out, Var):  # a trace that reads no channel is a plain array
        backward(out, cotangent)
        out = out.data
    grads = [np.zeros(length) if channels[n].grad is None else channels[n].grad for n in CHANNELS]
    return out, np.stack(grads)


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
        got = self.value_and_grads(lambda l, r: masking._until_var(l, r, None, cfg), x0, y0, g)
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

    @pytest.mark.parametrize("cmp", ["<", "<="])
    def test_below_predicate_is_one_node(self, cmp):
        x = Var(np.array([0.5, 2.0, -1.0]))
        out = trace_var(Pred("x", cmp, 1.0), {"x": x}, 3, SemanticsConfig())
        assert out._parents == (x,)
        np.testing.assert_array_equal(out.data, [0.5, -1.0, 2.0])
        backward(out, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(x.grad, [-1.0, -2.0, -3.0])

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

    @pytest.mark.parametrize("mode", [Hard(), LogSumExp(5.0), SoftMax(2.0)])
    def test_taped_smooth_bounds_evaluate_by_value(self, mode):
        sig = NamedSignals.from_arrays({"s": np.random.default_rng(6).normal(0, 1, 10)})
        cfg = SemanticsConfig(mode=mode)
        plain = SmoothInterval(0.2, 0.6, 4.0)
        taped = SmoothInterval(Var(0.2), Var(0.6), Var(4.0))
        f, g = (Always(Pred("s", ">", 0.0), si) for si in (plain, taped))
        got = robustness_trace(g, sig, cfg)
        assert got.dtype == np.float64
        assert np.array_equal(got, robustness_trace(f, sig, cfg))
        assert robustness(g, sig, cfg) == robustness(f, sig, cfg)
        x = sig["s"].values
        for op in (eventually_trace, always_trace):
            assert np.array_equal(op(x, taped, cfg), op(x, plain, cfg))

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
                                      "F G (x > 0)", "G[1,6] (x > 0)"])
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

