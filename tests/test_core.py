import numpy as np
import pytest
from hypothesis import given, strategies as st

from stlmask.core import (
    EmptySignalError,
    Hard,
    InvalidIntervalError,
    LogSumExp,
    NamedSignals,
    NonFiniteSampleError,
    PaddingPolicy,
    SemanticsConfig,
    ShapeError,
    Signal,
    SmoothInterval,
    SoftMax,
    StepInterval,
    make_signal,
    window_size,
)


class TestSignal:
    def test_basic_construction(self):
        s = make_signal([0, 1, 2], 0.1)
        assert len(s) == 3
        assert s.dt == 0.1
        assert s.values.dtype == np.float64

    def test_empty_rejected(self):
        with pytest.raises(EmptySignalError):
            make_signal([], 0.1)

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteSampleError):
            make_signal([1.0, float("nan")], 0.1)

    def test_inf_rejected(self):
        with pytest.raises(NonFiniteSampleError):
            make_signal([1.0, float("inf")])

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            make_signal([1.0], 0.0)

    def test_values_are_locked(self):
        s = make_signal([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_source_array_not_aliased(self):
        src = np.array([1.0, 2.0])
        s = Signal(src)
        src[0] = 9.0
        assert s.values[0] == 1.0

    @pytest.mark.parametrize("shape", [(2, 5), (1, 3), (5, 1), (2, 2, 2)])
    def test_two_or_more_dimensions_rejected(self, shape):
        # a (2, 5) array is not one signal of 10 samples
        with pytest.raises(ShapeError):
            make_signal(np.zeros(shape))
        with pytest.raises(ShapeError):
            Signal(np.zeros(shape))
        with pytest.raises(ShapeError):
            NamedSignals.from_arrays({"x": np.zeros(shape)})

    def test_scalar_is_one_sample(self):
        s = make_signal(2.5)
        assert len(s) == 1 and s.values.shape == (1,) and s.values[0] == 2.5


class TestNamedSignals:
    def test_lengths_must_match(self):
        with pytest.raises(ShapeError):
            NamedSignals({"x": make_signal([1, 2]), "y": make_signal([1, 2, 3])})

    def test_dt_must_match(self):
        with pytest.raises(ShapeError):
            NamedSignals({"x": make_signal([1], 0.1), "y": make_signal([1], 0.2)})

    def test_empty_rejected(self):
        with pytest.raises(EmptySignalError):
            NamedSignals({})

    def test_accessors(self):
        sig = NamedSignals.from_arrays({"x": [1, 2], "y": [3, 4]}, dt=0.5)
        assert sig.length == 2
        assert sig.dt == 0.5
        assert set(sig.names()) == {"x", "y"}
        assert "x" in sig
        np.testing.assert_array_equal(sig["y"].values, [3, 4])

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=5))
    def test_mismatched_lengths_rejected_property(self, lengths):
        sigs = {f"c{i}": make_signal(np.zeros(n)) for i, n in enumerate(lengths)}
        if len(set(lengths)) == 1:
            assert NamedSignals(sigs).length == lengths[0]
        else:
            with pytest.raises(ShapeError):
                NamedSignals(sigs)


class TestIntervals:
    def test_window_size_paper_example(self):
        assert window_size(StepInterval(1, 3)) == 3

    @pytest.mark.parametrize("a,b,expect", [(0, 0, 1), (2, 7, 6), (5, 5, 1)])
    def test_window_size(self, a, b, expect):
        assert window_size(StepInterval(a, b)) == expect

    def test_invalid_order(self):
        with pytest.raises(InvalidIntervalError):
            StepInterval(3, 1)

    def test_negative(self):
        with pytest.raises(InvalidIntervalError):
            StepInterval(-1, 2)

    @given(st.integers(0, 100), st.integers(0, 100))
    def test_window_size_bounds(self, a, extra):
        iv = StepInterval(a, a + extra)
        assert 1 <= window_size(iv) <= iv.b + 1

    def test_smooth_interval_validation(self):
        SmoothInterval(0.2, 0.8, 5.0)
        with pytest.raises(InvalidIntervalError):
            SmoothInterval(0.8, 0.2, 5.0)
        with pytest.raises(InvalidIntervalError):
            SmoothInterval(0.2, 0.8, -1.0)
        with pytest.raises(InvalidIntervalError):
            SmoothInterval(0.2, 0.8, 1.0, eps=0.7)

    def test_taped_smooth_bounds_are_checked_by_value(self):
        from stlmask.tape import Var

        SmoothInterval(Var(0.2), Var(0.8), Var(5.0))
        # 0-d arrays, as the planner's bounds are when nothing is taped
        SmoothInterval(np.array(0.2), np.array(0.8), 5.0)
        with pytest.raises(InvalidIntervalError):
            SmoothInterval(Var(0.7), Var(0.2))
        with pytest.raises(InvalidIntervalError):
            SmoothInterval(Var(0.2), Var(1.5))
        with pytest.raises(InvalidIntervalError):
            SmoothInterval(0.2, 0.8, Var(-1.0))


class TestConfig:
    def test_padding_validation(self):
        with pytest.raises(ValueError):
            PaddingPolicy("weird")
        with pytest.raises(NonFiniteSampleError):
            PaddingPolicy.constant(float("inf"))

    def test_mode_temperatures(self):
        with pytest.raises(ValueError):
            SoftMax(0.0)
        with pytest.raises(ValueError):
            LogSumExp(-1.0)

    @pytest.mark.parametrize("mode", [SoftMax, LogSumExp])
    @pytest.mark.parametrize("temp", [float("inf"), float("nan")])
    def test_non_finite_temperature_rejected(self, mode, temp):
        with pytest.raises(ValueError, match="temperature"):
            mode(temp)

    def test_defaults(self):
        cfg = SemanticsConfig()
        assert isinstance(cfg.mode, Hard)
        assert cfg.top_value == 1e5
        assert cfg.padding.kind == "last"
