from dataclasses import replace

import numpy as np
import pytest

from helpers import random_formula, random_signals
from stlmask.autodiff import Gradients, finite_diff_check, value_and_grad
from stlmask.core import (
    Hard,
    LogSumExp,
    NamedSignals,
    PaddingPolicy,
    SemanticsConfig,
    SmoothInterval,
    SoftMax,
)
from stlmask.formula import Always, And, Eventually, Not, Pred, parse

LSE5 = SemanticsConfig(mode=LogSumExp(5.0))


def signals_from(arrays):
    return NamedSignals.from_arrays(arrays)


class TestFiniteDiffCheck:
    def test_quadratic_is_near_exact(self):
        x0 = np.array([1.0, -2.0, 0.5])
        fn = lambda v: float(np.sum(v * v) + 2 * v[0])
        analytic = 2 * x0 + np.array([2.0, 0.0, 0.0])
        assert finite_diff_check(fn, x0, analytic) < 1e-8

    def test_detects_wrong_gradient(self):
        x0 = np.array([1.0])
        assert finite_diff_check(lambda v: float(v[0] ** 2), x0, [5.0]) > 0.1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda v: 0.0, [1.0, 2.0], [0.0])


class TestHardGradients:
    def test_one_hot_at_argmax(self):
        g = value_and_grad(parse("F (s > 0)"), signals_from({"s": [1.0, 3.0, 2.0]}))
        assert g.value == 3.0
        np.testing.assert_array_equal(g.d_signal["s"], [0.0, 1.0, 0.0])
        assert g.d_a is None and g.d_b is None and g.d_c is None

    def test_min_subgradient_sums_to_one(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            sig = signals_from({"s": rng.normal(0, 1, 9)})
            g = value_and_grad(parse("G (s > 0)"), sig)
            assert g.d_signal["s"].sum() == pytest.approx(1.0)
            assert np.count_nonzero(g.d_signal["s"]) == 1

    def test_tie_routes_to_first_occurrence(self):
        g = value_and_grad(parse("F (s > 0)"), signals_from({"s": [1.0, 3.0, 3.0]}))
        np.testing.assert_array_equal(g.d_signal["s"], [0.0, 1.0, 0.0])


class TestSmoothGradients:
    def test_lse_always_is_softmin(self):
        tau = 5.0
        vals = np.array([0.5, -0.2, 0.9, 0.1])
        g = value_and_grad(parse("G (s > 0)"), signals_from({"s": vals}),
                           SemanticsConfig(mode=LogSumExp(tau)))
        w = np.exp(-tau * vals)
        w /= w.sum()
        np.testing.assert_allclose(g.d_signal["s"], w, atol=1e-12)
        assert g.d_signal["s"].sum() == pytest.approx(1.0)

    def test_negation_negates_gradients(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            signals = random_signals(rng, 12)
            f = random_formula(rng, 2)
            g_pos = value_and_grad(f, signals, LSE5)
            g_neg = value_and_grad(Not(f), signals, LSE5)
            assert g_neg.value == -g_pos.value
            for name in g_pos.d_signal:
                np.testing.assert_allclose(g_neg.d_signal[name], -g_pos.d_signal[name],
                                           atol=1e-15)

    def test_100_random_smooth_cases_fd(self):
        rng = np.random.default_rng(52)
        worst = 0.0
        for case in range(100):
            length = int(rng.integers(3, 15))
            arrays = {"x": rng.normal(0, 1.5, length), "y": rng.normal(0, 1.5, length)}
            signals = signals_from(arrays)
            f = random_formula(rng, 2)
            tau = float(rng.choice([1.0, 5.0, 20.0]))
            cfg = SemanticsConfig(mode=LogSumExp(tau), padding=PaddingPolicy.last_value())
            got = value_and_grad(f, signals, cfg)
            for name in ("x", "y"):
                def fn(vec, _n=name):
                    probe = dict(arrays)
                    probe[_n] = vec
                    return value_and_grad(f, signals_from(probe), cfg).value
                err = finite_diff_check(fn, arrays[name], got.d_signal[name], h=1e-5)
                worst = max(worst, err)
        assert worst < 1e-5

    def test_interval_gradients_fd(self):
        rng = np.random.default_rng(53)
        si = SmoothInterval(0.3, 0.65, 9.0)
        for _ in range(10):
            length = 14
            arrays = {"x": rng.normal(0, 1, length), "y": rng.normal(0, 1, length)}
            signals = signals_from(arrays)
            f = And(Always(Pred("x", ">", 0.0), si), Eventually(Pred("y", ">", -0.5)))
            got = value_and_grad(f, signals, LSE5)
            assert got.d_a is not None

            def probe(which, v):
                kw = {"a": si.a, "b": si.b, "c": si.c}
                kw[which] = float(v[0])
                return value_and_grad(f, signals, LSE5, si=SmoothInterval(**kw)).value

            assert finite_diff_check(lambda v: probe("a", v), [si.a], [got.d_a]) < 1e-5
            assert finite_diff_check(lambda v: probe("b", v), [si.b], [got.d_b]) < 1e-5
            assert finite_diff_check(lambda v: probe("c", v), [si.c], [got.d_c]) < 1e-5

    def test_sharp_mask_localizes_interval_gradients(self):
        # at c = 1e3 the window is nearly binary: moving a bound only matters
        # within about a sample of the edges, so with the extremum far from
        # both edges the bound gradients vanish
        length = 20
        vals = np.ones(length)
        vals[8] = 0.1  # interior minimum, away from the window edges
        si = SmoothInterval(0.2, 0.7, 1e3)
        f = Always(Pred("s", ">", 0.0), si)
        g = value_and_grad(f, signals_from({"s": vals}), SemanticsConfig(mode=LogSumExp(20.0)))
        assert abs(g.d_a) < 1e-4
        assert abs(g.d_b) < 1e-4

    def test_hard_tie_fd_check_is_skipped(self):
        # at an exact reduction tie the hard value is not differentiable; the
        # check is documented as skipped rather than asserted
        vals = np.array([1.0, 3.0, 3.0])
        signals = signals_from({"s": vals})
        f = parse("F (s > 0)")
        got = value_and_grad(f, signals)
        tie = len(np.flatnonzero(vals == vals.max())) > 1
        if tie:
            pytest.skip("gradient check skipped at a hard max tie (non-differentiable point)")
        fn = lambda v: value_and_grad(f, signals_from({"s": v})).value
        assert finite_diff_check(fn, vals, got.d_signal["s"]) < 1e-5


class TestBindings:
    def test_si_requires_smooth_node(self):
        with pytest.raises(ValueError):
            value_and_grad(parse("F (s > 0)"), signals_from({"s": [1.0, 2.0]}),
                           si=SmoothInterval(0.2, 0.8, 4.0))

    def test_distinct_smooth_intervals_rejected_without_binding(self):
        f = And(Always(Pred("s", ">", 0.0), SmoothInterval(0.1, 0.5, 4.0)),
                Eventually(Pred("s", ">", 0.0), SmoothInterval(0.2, 0.9, 4.0)))
        with pytest.raises(ValueError):
            value_and_grad(f, signals_from({"s": np.ones(8)}), LSE5)

    def test_binding_overrides_all_nodes(self):
        f = And(Always(Pred("s", ">", 0.0), SmoothInterval(0.1, 0.5, 4.0)),
                Eventually(Pred("s", ">", 0.0), SmoothInterval(0.2, 0.9, 4.0)))
        sig = signals_from({"s": np.random.default_rng(54).normal(0, 1, 8)})
        si = SmoothInterval(0.3, 0.7, 6.0)
        out = value_and_grad(f, sig, LSE5, si=si)
        assert isinstance(out, Gradients)
        # both nodes read the bound leaves: each derivative sums both paths
        for name, got in (("a", out.d_a), ("b", out.d_b), ("c", out.d_c)):
            def probe(v, _name=name):
                bound = replace(si, **{_name: float(v[0])})
                return value_and_grad(f, sig, LSE5, si=bound).value
            assert finite_diff_check(probe, [getattr(si, name)], [got]) < 1e-6

    def test_taped_bounds_in_the_formula_match_the_binding(self):
        from stlmask.masking import trace_var
        from stlmask.tape import Var, backward, index_last

        rng = np.random.default_rng(55)
        sig = signals_from({"s": rng.normal(0, 1, 12)})
        si = SmoothInterval(0.2, 0.65, 7.0)
        want = value_and_grad(Eventually(Pred("s", "<", 0.3), si), sig, LSE5)
        taped = SmoothInterval(Var(si.a), Var(si.b), Var(si.c))
        f = Eventually(Pred("s", "<", 0.3), taped)
        value = index_last(trace_var(f, {"s": Var(sig["s"].values)}, 12, LSE5), 0)
        backward(value)
        assert float(value.data) == want.value
        assert (float(taped.a.grad), float(taped.b.grad), float(taped.c.grad)) == \
            (want.d_a, want.d_b, want.d_c)

    @pytest.mark.parametrize("mode", [Hard(), LogSumExp(5.0), SoftMax(2.0)])
    def test_taped_bounds_in_the_formula_bind_by_value(self, mode):
        from stlmask.tape import Var

        sig = signals_from({"s": np.random.default_rng(56).normal(0, 1, 12)})
        cfg = SemanticsConfig(mode=mode)
        si = SmoothInterval(0.2, 0.65, 7.0)
        want = value_and_grad(Always(Pred("s", "<", 0.3), si), sig, cfg)
        taped = SmoothInterval(Var(si.a), Var(si.b), Var(si.c))
        got = value_and_grad(Always(Pred("s", "<", 0.3), taped), sig, cfg)
        assert (got.value, got.d_a, got.d_b, got.d_c) == (want.value, want.d_a, want.d_b, want.d_c)
        assert np.array_equal(got.d_signal["s"], want.d_signal["s"])
        # the bounds were read by value into fresh leaves
        assert taped.a.grad is None and taped.b.grad is None and taped.c.grad is None

    def test_unused_channel_gets_zero_gradient(self):
        sig = signals_from({"s": [1.0, 2.0], "unused": [5.0, 5.0]})
        g = value_and_grad(parse("F (s > 0)"), sig)
        np.testing.assert_array_equal(g.d_signal["unused"], [0.0, 0.0])
