import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlmask.core import EmptyWindowError, Hard, LogSumExp, SmoothInterval, SoftMax
from stlmask.smoothing import (
    AnnealSchedule,
    sigmoid,
    smooth_mask_weights,
    smooth_max,
    smooth_min,
    smooth_time_mask,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestSmoothMax:
    def test_lse_two_zeros(self):
        assert smooth_max([0.0, 0.0], LogSumExp(1.0)) == pytest.approx(math.log(2), abs=1e-12)

    def test_hard(self):
        assert smooth_max([3.0, 1.0, 2.0], Hard()) == 3.0
        assert smooth_min([3.0, 1.0, 2.0], Hard()) == 1.0

    def test_softmax_approaches_max(self):
        tau = 20.0
        out = smooth_max([3.0, 1.0, 2.0], SoftMax(tau))
        assert abs(out - 3.0) <= (3.0 - 1.0) * math.exp(-tau * 1.0) * 3

    def test_lse_min_duality(self):
        assert smooth_min([0.0, 0.0], LogSumExp(1.0)) == pytest.approx(-math.log(2), abs=1e-12)

    # at temperature 500 the excluded 9.0 would overflow exp unless it is masked first
    @pytest.mark.parametrize("mode", [Hard(), LogSumExp(2.0), SoftMax(2.0), LogSumExp(500.0),
                                      SoftMax(500.0)])
    def test_single_effective_weight(self, mode):
        assert smooth_max([9.0, 4.0, 7.0], mode, weights=[0, 1, 0]) == pytest.approx(4.0)
        assert smooth_min([9.0, 4.0, 7.0], mode, weights=[0, 1, 0]) == pytest.approx(4.0)

    def test_all_zero_weights(self):
        with pytest.raises(EmptyWindowError):
            smooth_max([1.0, 2.0], Hard(), weights=[0.0, 0.0])

    def test_empty_values(self):
        with pytest.raises(EmptyWindowError):
            smooth_max([], Hard())

    def test_huge_temperature_no_overflow(self):
        out = smooth_max([1e5, -1e5, 3.0], LogSumExp(1000.0))
        assert np.isfinite(out) and out == pytest.approx(1e5)

    @given(st.lists(finite, min_size=1, max_size=12), st.sampled_from([1.0, 10.0, 100.0]))
    @settings(max_examples=200, deadline=None)
    def test_lse_bound(self, xs, tau):
        hard = max(xs)
        lse = smooth_max(xs, LogSumExp(tau))
        assert hard - 1e-12 <= lse <= hard + math.log(len(xs)) / tau + 1e-12

    @given(st.lists(finite, min_size=1, max_size=12), st.sampled_from([0.5, 3.0, 40.0]))
    @settings(max_examples=200, deadline=None)
    def test_softmax_containment(self, xs, tau):
        out = smooth_max(xs, SoftMax(tau))
        assert min(xs) - 1e-9 <= out <= max(xs) + 1e-9

    @given(st.lists(finite, min_size=1, max_size=12), st.sampled_from([1.0, 7.0]))
    @settings(max_examples=100, deadline=None)
    def test_min_max_duality_exact(self, xs, tau):
        for mode in (Hard(), LogSumExp(tau), SoftMax(tau)):
            assert smooth_min(xs, mode) == -smooth_max([-x for x in xs], mode)


class TestCompositionIdentities:
    def test_lse_composition_identity_1000(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            xs = list(rng.normal(0, 3, n))
            y = float(rng.normal(0, 3))
            tau = float(rng.choice([0.5, 1.0, 5.0, 20.0]))
            mode = LogSumExp(tau)
            nested = smooth_max([smooth_max(xs, mode), y], mode)
            flat = smooth_max(xs + [y], mode)
            assert abs(nested - flat) <= 1e-12 * max(1.0, abs(flat))

    def test_softmax_composition_fails(self):
        # fixed witness: nesting softens earlier values
        xs, y, tau = [0.0, 1.0], 2.0, 1.0
        mode = SoftMax(tau)
        nested = smooth_max([smooth_max(xs, mode), y], mode)
        flat = smooth_max(xs + [y], mode)
        assert abs(nested - flat) > 1e-3


class TestTimeMask:
    def test_center_approaches_one(self):
        si = SmoothInterval(0.2, 0.8, 1e4)
        assert smooth_time_mask(10, si, 20) == pytest.approx(1.0, abs=1e-12)

    def test_center_minus_eps(self):
        si = SmoothInterval(0.2, 0.8, 1e4, eps=0.25)
        assert smooth_time_mask(10, si, 20) == pytest.approx(0.75, abs=1e-10)

    def test_left_edge_half(self):
        si = SmoothInterval(0.25, 0.95, 50.0)
        # exactly at a*L the first sigmoid is 1/2 and the second vanishes
        assert smooth_time_mask(si.a * 20, si, 20) == pytest.approx(0.5, abs=1e-6)

    def test_far_left_clamps_to_zero(self):
        si = SmoothInterval(0.5, 0.9, 5.0, eps=0.01)
        assert smooth_time_mask(0, si, 100) == 0.0

    def test_weights_indicator_limit(self):
        si = SmoothInterval(0.23, 0.59, 1e4)
        w = smooth_mask_weights(si, 20)
        inside = np.arange(5, 12)  # ceil(4.6)..floor(11.8)
        assert np.all(w[inside] > 0.999)
        outside = np.setdiff1d(np.arange(20), inside)
        assert np.all(w[outside] < 1e-3)

    def test_weights_fixture_c50(self):
        w = smooth_mask_weights(SmoothInterval(0.23, 0.59, 50.0), 20)
        assert np.all(w[5:12] > 0.9)
        assert np.all((w >= 0) & (w <= 1))

    def test_full_interval_all_ones(self):
        w = smooth_mask_weights(SmoothInterval(0.0, 1.0, 1e4), 10)
        # index 0 sits on the lower boundary where the sigmoid is exactly 1/2
        assert w[0] == pytest.approx(0.5, abs=1e-6)
        assert np.all(w[1:] > 0.999)

    def test_collapsed_interval_raises(self):
        si = SmoothInterval(0.49, 0.51, 0.5, eps=0.3)
        with pytest.raises(EmptyWindowError):
            smooth_mask_weights(si, 10)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="long double is no wider than float64 here")
    @pytest.mark.parametrize("si,length", [
        (SmoothInterval(0.2, 0.6, 0.25), 256),
        (SmoothInterval(298 / 299, 1.0, 50.0), 20),
        (SmoothInterval(0.0, 1 / 299, 50.0), 20),
        (SmoothInterval(0.3, 0.31, 2.0), 50),
    ])
    def test_weights_match_long_double_without_cancellation(self, si, length):
        from stlmask.masking import smooth_weights_var

        # sigma(x) - sigma(y) == sigma(x) * sigma(-y) * (1 - exp(y - x)): a
        # product with no cancellation anywhere, evaluated in long double
        i = np.arange(length, dtype=np.longdouble)
        x = np.longdouble(si.c) * (i - np.longdouble(si.a) * length)
        y = np.longdouble(si.c) * (i - np.longdouble(si.b) * length)
        ref = -np.expm1(y - x) / ((1 + np.exp(-x)) * (1 + np.exp(y)))
        # weights below the float64 range are rounded to zero by either form
        shown = ref > 1e-300
        for w in (smooth_mask_weights(si, length),
                  smooth_weights_var(si, length)):
            rel = (np.abs(w - ref)[shown] / ref[shown]).astype(np.float64)
            # as sigma(x) - sigma(y) everywhere, far-window weights lost 5e-6
            # of their value or all of it
            assert rel.max() < 1e-12

    def test_weights_differentiable_in_a(self):
        si = SmoothInterval(0.3, 0.7, 8.0)
        h = 1e-6
        w_plus = smooth_mask_weights(SmoothInterval(si.a + h, si.b, si.c), 20)
        w_minus = smooth_mask_weights(SmoothInterval(si.a - h, si.b, si.c), 20)
        slope = (w_plus - w_minus) / (2 * h)
        assert np.all(np.isfinite(slope))
        assert np.any(slope != 0)

    def test_taped_weights_from_float_bounds_equal_the_mask_bit_for_bit(self):
        from stlmask.masking import smooth_weights_var

        # bounds on a grid of hundredths that put a sample exactly on the
        # window's midpoint, where the two forms of the difference meet:
        # both builders must take the same form there
        checked = 0
        for length in range(2, 41):
            for ka in range(101):
                for kb in range(ka + 1, 101):
                    if (ka + kb) * length % 200:
                        continue
                    si = SmoothInterval(ka / 100, kb / 100, 8.0)
                    w = smooth_weights_var(si, length)
                    assert type(w) is np.ndarray
                    assert np.array_equal(w, smooth_time_mask(np.arange(length), si, length)), (si, length)
                    checked += 1
        assert checked > 4000


class TestAnneal:
    def test_constant(self):
        sch = AnnealSchedule.constant(5.0)
        assert sch.value(0) == 5.0
        assert sch.value(12345) == 5.0

    def test_linear_midpoint(self):
        sch = AnnealSchedule.linear(1e-9, 10.0, 100)
        assert sch.value(50) == pytest.approx(5.0, abs=1e-7)

    def test_sigmoid_endpoints_exact(self):
        sch = AnnealSchedule.sigmoid(1.0, 100.0, 200)
        assert sch.value(0) == 1.0
        assert sch.value(200) == pytest.approx(100.0, rel=0.003)
        assert sch.value(200) == 100.0

    def test_monotone(self):
        for kind in ("linear", "sigmoid"):
            sch = AnnealSchedule(kind, 2.0, 50.0, 64)
            vals = [sch.value(k) for k in range(65)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -2.0])
    def test_endpoints_must_be_positive_and_finite(self, bad):
        for start, end in ((bad, 1.0), (1.0, bad)):
            for kind in ("linear", "sigmoid"):
                with pytest.raises(ValueError, match="positive and finite"):
                    AnnealSchedule(kind, start, end, 10)
        with pytest.raises(ValueError, match="positive and finite"):
            AnnealSchedule.constant(bad)

    def test_step_bounds(self):
        sch = AnnealSchedule.linear(1.0, 2.0, 10)
        with pytest.raises(ValueError):
            sch.value(11)

    def test_sigmoid_shape(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == 0.0

    def test_sigmoid_matches_two_branch_form_bit_for_bit(self):
        # 1/(1+exp(-z)) on z >= 0 and exp(z)/(1+exp(z)) below, branch by branch
        z = np.concatenate([np.linspace(-750.0, 750.0, 3001), [0.0, -0.0, 1e-300, -1e-300],
                            np.random.default_rng(9).normal(0, 30, 500)])
        pos = z >= 0
        expect = np.empty_like(z)
        expect[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        expect[~pos] = ez / (1.0 + ez)
        assert np.array_equal(sigmoid(z), expect)
        e = np.exp(-3.7)
        assert sigmoid(-3.7) == e / (1.0 + e)
        assert isinstance(sigmoid(-3.7), float)
