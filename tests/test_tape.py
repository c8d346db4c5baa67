import operator

import numpy as np
import pytest

from helpers import gathered_until, long_double_until, sequential_until
from stlmask import tape
from stlmask.core import EmptyWindowError, Hard, LogSumExp, SoftMax
from stlmask.smoothing import smooth_max as ref_max, smooth_min as ref_min
from stlmask.tape import Var, backward


def numeric_grad(fn, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = h
        out[i] = (fn((flat + e).reshape(x.shape)) - fn((flat - e).reshape(x.shape))) / (2 * h)
    return g


def check_grad(build, x0, atol=1e-7):
    v = Var(np.asarray(x0, dtype=np.float64))
    out = build(v)
    backward(out)
    numeric = numeric_grad(lambda arr: float(build(Var(arr)).data), x0)
    np.testing.assert_allclose(v.grad, numeric, atol=atol)


# operations for the constant-operand test: ``c`` is the constant
CONST_OPS = {
    "add": lambda c, v: v + c, "radd": lambda c, v: c + v,
    "sub": lambda c, v: v - c, "rsub": lambda c, v: c - v,
    "mul": lambda c, v: v * c, "rmul": lambda c, v: c * v,
    "div": lambda c, v: v / c, "rdiv": lambda c, v: c / v,
    "concat": lambda c, v: tape.concat_last([c, v, c]),
}


def _pair_op(pair, mode, const_first):
    if const_first:
        return lambda c, v: pair(c, v, mode)
    return lambda c, v: pair(v, c, mode)


CONST_OPS.update({
    f"{pair.__name__}-{type(mode).__name__}-{side}": _pair_op(pair, mode, side == "left")
    for pair in (tape.pair_smooth_max, tape.pair_smooth_min)
    for mode in (Hard(), LogSumExp(3.0), SoftMax(3.0))
    for side in ("left", "right")
})
CONSTANTS = {"array": np.array([[0.5], [-1.5]]), "scalar": 2.5}


class TestElementwise:
    def test_arithmetic_chain(self):
        check_grad(lambda v: tape.vsum(v * v * 2.0 + v / 3.0 - 1.0), [1.0, -2.0, 0.5])

    def test_exp_log_sigmoid(self):
        check_grad(lambda v: tape.vsum(tape.exp(v) + tape.log(v + 10.0) + tape.sigmoid(v)),
                   [0.3, -0.7, 2.0])

    def test_sqrt_square_relu(self):
        check_grad(lambda v: tape.vsum(tape.sqrt(tape.square(v) + 1.0) + tape.relu(v)),
                   [0.5, -1.5, 2.5])

    def test_broadcasting(self):
        a = Var(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Var(np.array([10.0, 20.0]))
        out = tape.vsum(a * b)
        backward(out)
        np.testing.assert_allclose(a.grad, [[10.0, 20.0], [10.0, 20.0]])
        np.testing.assert_allclose(b.grad, [4.0, 6.0])

    @pytest.mark.parametrize("op,dx", [
        (operator.add, lambda a, x: np.ones_like(x)),
        (operator.sub, lambda a, x: -np.ones_like(x)),
        (operator.mul, lambda a, x: a),
        (operator.truediv, lambda a, x: -a / (x * x)),
    ], ids=["add", "sub", "mul", "div"])
    def test_ndarray_left_operand(self, op, dx):
        # numpy must hand ``ndarray op Var`` to the reflected operator, not
        # build an object array with one Var per entry
        a = np.array([3.0, -1.0, 0.5])
        x = Var(np.array([1.0, 2.0, 4.0]))
        out = op(a, x)
        assert isinstance(out, Var)
        np.testing.assert_array_equal(out.data, op(a, x.data))
        backward(tape.vsum(out))
        np.testing.assert_allclose(x.grad, dx(a, x.data))

    @pytest.mark.parametrize("op,kind", [(op, kind) for op in CONST_OPS for kind in CONSTANTS
                                         if op != "concat" or kind == "array"])
    def test_ndarray_operand_is_a_constant(self, op, kind):
        const, build = CONSTANTS[kind], CONST_OPS[op]
        rng = np.random.default_rng(14)
        x0 = rng.uniform(0.5, 2.0, (2, 3))
        x, ref, ref_const = Var(x0), Var(x0), Var(const)
        out, taped = build(const, x), build(ref_const, ref)
        # no leaf for the constant and no neg node in front of the operand
        assert out._parents == (x,)
        assert np.array_equal(out.data, taped.data)
        seed = rng.normal(0, 1, out.shape)
        backward(out, seed)
        backward(taped, seed)
        assert np.array_equal(x.grad, ref.grad)
        if op == "concat":
            assert np.array_equal(x.grad, seed[:, 1:4])
        assert tape.add(np.ones(2), 3.0)._parents == ()

    def test_numpy_scalar_left_operand(self):
        x = Var(np.array([1.0, 2.0]))
        out = np.float64(3.0) * x
        assert isinstance(out, Var)
        np.testing.assert_array_equal(out.data, [3.0, 6.0])
        backward(tape.vsum(out))
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])


class TestShapes:
    def test_cumsum0(self):
        check_grad(lambda v: tape.vsum(tape.cumsum0(v) * np.array([[1.0], [2.0], [3.0]])),
                   np.arange(6.0).reshape(3, 2))

    def test_take_last_grad(self):
        idx = np.array([[0, 1], [1, 2], [2, 2]])
        check_grad(lambda v: tape.vsum(tape.take_last(v, idx) * np.array([1.0, 2.0])),
                   [0.5, 1.5, -0.5])

    def test_take_last_batched(self):
        x = Var(np.arange(8.0).reshape(2, 4))
        out = tape.take_last(x, np.array([3, 0]))
        np.testing.assert_allclose(out.data, [[3.0, 0.0], [7.0, 4.0]])
        backward(tape.vsum(out))
        np.testing.assert_allclose(x.grad, [[1, 0, 0, 1], [1, 0, 0, 1]])

    @pytest.mark.parametrize("a_shape, idx_shape, high", [
        ((5,), (7, 3), 5),
        ((2, 3, 6), (4, 9), 2),
        ((2, 8), (1200, 1000), 8),  # idx.size * width above 1e6
    ])
    def test_take_last_scatter_matches_add_at(self, a_shape, idx_shape, high):
        rng = np.random.default_rng(31)
        idx = rng.integers(0, high, idx_shape)  # many repeated indices
        x0 = rng.normal(0, 1, a_shape)
        g = rng.normal(0, 1, a_shape[:-1] + idx_shape)
        x = Var(x0)
        backward(tape.take_last(x, idx), g)
        rows = int(np.prod(a_shape[:-1]))
        expect = np.zeros((rows, a_shape[-1]))
        np.add.at(expect, (np.arange(rows)[:, None], idx.ravel()[None, :]), g.reshape(rows, -1))
        assert np.array_equal(x.grad, expect.reshape(a_shape))

    def test_concat_index(self):
        def build(v):
            padded = tape.concat_last([v, Var(np.array([9.0]))])
            return tape.index_last(padded, 3) + tape.index_last(padded, 0)
        check_grad(build, [1.0, 2.0, 3.0])

    def test_stack_last(self):
        a, b = Var(np.array([1.0, 2.0])), Var(np.array([3.0, 4.0]))
        out = tape.stack_last([a, b])
        assert out.data.shape == (2, 2)
        backward(tape.vsum(out * np.array([1.0, 5.0])))
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [5.0, 5.0])


class TestReductions:
    def test_hard_max_one_hot_first_occurrence(self):
        v = Var(np.array([1.0, 3.0, 3.0, 2.0]))
        out = tape.hard_max(v)
        assert float(out.data) == 3.0
        backward(out)
        np.testing.assert_allclose(v.grad, [0.0, 1.0, 0.0, 0.0])

    def test_hard_max_weights_select(self):
        v = Var(np.array([9.0, 4.0, 7.0]))
        out = tape.hard_max(v, weights=np.array([0.0, 1.0, 0.0]))
        assert float(out.data) == 4.0

    def test_hard_max_empty_kept(self):
        with pytest.raises(EmptyWindowError):
            tape.hard_max(Var(np.array([1.0, 2.0])), weights=np.zeros(2))

    def test_subgradient_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(0, 1, 7)
            for reduce in (tape.hard_max, lambda v: tape.neg(tape.hard_max(tape.neg(v)))):
                v = Var(x)
                backward(reduce(v))
                assert v.grad.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", [LogSumExp(0.7), LogSumExp(9.0), SoftMax(2.0)])
    def test_smooth_reductions_grad(self, mode):
        rng = np.random.default_rng(5)
        x0 = rng.normal(0, 2, (3, 5))
        check_grad(lambda v: tape.vsum(tape.smooth_max(v, mode)), x0, atol=1e-6)
        check_grad(lambda v: tape.vsum(tape.smooth_min(v, mode)), x0, atol=1e-6)

    def test_weighted_smooth_grad_to_weights(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, 6)
        w0 = rng.uniform(0.05, 1.0, 6)
        mode = LogSumExp(3.0)
        w = Var(w0)
        out = tape.smooth_max(Var(x), mode, weights=w)
        backward(out)
        numeric = numeric_grad(
            lambda arr: float(tape.smooth_max(Var(x), mode, weights=Var(arr)).data), w0)
        np.testing.assert_allclose(w.grad, numeric, atol=1e-6)

    def test_weighted_excluded_entries_cannot_poison(self):
        # excluded entry far above the kept maximum must not produce NaN/Inf
        x = Var(np.array([1e5, -2.0, -3.0]))
        w = np.array([0.0, 1.0, 1.0])
        for mode in (LogSumExp(5.0), SoftMax(5.0)):
            out = tape.smooth_max(x, mode, weights=w)
            assert np.isfinite(out.data)
            assert out.data <= -2.0 + 1.0

    def test_smooth_matches_smoothing_module(self):
        rng = np.random.default_rng(7)
        for mode in (Hard(), LogSumExp(2.5), SoftMax(1.5)):
            xs = rng.normal(0, 3, 9)
            ws = rng.uniform(0, 1, 9)
            ws[rng.integers(0, 9)] = 1.0
            got = float(tape.smooth_max(Var(xs), mode, weights=ws).data)
            assert got == pytest.approx(ref_max(xs, mode, weights=ws), abs=1e-12)


def composite_reduce(x, mode, w, sign):
    """Smooth max (sign=1) or min (sign=-1) as the chain of elementwise steps
    the tape used to record one node each: detached kept max, shift, scale,
    mask, exp, weight, sum, then log-sum-exp or softmax average."""
    x = sign * np.asarray(x, dtype=np.float64)
    keep = np.ones(x.shape, dtype=bool) if w is None else np.broadcast_to(w > 0, x.shape)
    m = np.max(np.where(keep, x, -np.inf), axis=-1)
    z = np.where(keep, (x - m[..., None]) * mode.temp, -np.inf)
    e = np.exp(z) if w is None else w * np.exp(z)
    if isinstance(mode, LogSumExp):
        out = np.log(np.sum(e, axis=-1)) * (1.0 / mode.temp) + m
    else:
        out = np.sum(x * e, axis=-1) / np.sum(e, axis=-1)
    return sign * out


FUSED = [(tape.smooth_max, 1.0, ref_max), (tape.smooth_min, -1.0, ref_min)]
REDUCERS = [tape.smooth_max, tape.smooth_min]


class TestFusedSmoothReduction:
    @pytest.mark.parametrize("reduce,sign,ref", FUSED, ids=["max", "min"])
    @pytest.mark.parametrize("mode", [LogSumExp(2.5), SoftMax(1.5), LogSumExp(100.0), SoftMax(100.0)])
    def test_values_match_composite_and_smoothing(self, reduce, sign, ref, mode):
        rng = np.random.default_rng(11)
        # spread * temp reaches ~1e4 at temp 100: exp overflows unless shifted
        x = rng.normal(0, 40, (3, 4, 7))
        w_vec = rng.uniform(0, 1, 7)
        w_vec[[1, 4]] = 0.0
        w_mat = rng.uniform(0, 1, (4, 7)) * (rng.uniform(0, 1, (4, 7)) > 0.3)
        w_mat[:, 2] = 0.5
        for w in (None, w_vec, w_mat):
            for weights in (w, None if w is None else Var(w)):
                got = reduce(Var(x), mode, weights=weights).data
                assert got.shape == (3, 4)
                assert np.all(np.isfinite(got))
                np.testing.assert_allclose(got, composite_reduce(x, mode, w, sign), rtol=0, atol=1e-12)
                wb = np.ones(x.shape) if w is None else np.broadcast_to(w, x.shape)
                expect = [[ref(x[i, j], mode, weights=wb[i, j]) for j in range(4)] for i in range(3)]
                np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("reduce", REDUCERS, ids=["max", "min"])
    @pytest.mark.parametrize("mode", [LogSumExp(0.7), LogSumExp(6.0), SoftMax(2.0)])
    @pytest.mark.parametrize("w_shape", [(5,), (3, 5)])
    def test_grads_to_input_and_broadcast_weights(self, reduce, mode, w_shape):
        rng = np.random.default_rng(12)
        x0 = rng.normal(0, 1, (2, 3, 5))
        w0 = rng.uniform(0.1, 1.0, w_shape)
        seed = rng.normal(0, 1, (2, 3))

        def scalar(xa, wa):
            return float(np.sum(reduce(Var(xa), mode, weights=Var(wa)).data * seed))

        x, w = Var(x0), Var(w0)
        backward(reduce(x, mode, weights=w), seed=seed)
        assert w.grad.shape == w_shape
        np.testing.assert_allclose(x.grad, numeric_grad(lambda xa: scalar(xa, w0), x0), atol=1e-6)
        np.testing.assert_allclose(w.grad, numeric_grad(lambda wa: scalar(x0, wa), w0), atol=1e-6)

    @pytest.mark.parametrize("reduce", REDUCERS, ids=["max", "min"])
    @pytest.mark.parametrize("mode", [LogSumExp(3.0), SoftMax(3.0)])
    def test_masked_entries_get_exactly_zero_gradient(self, reduce, mode):
        x = Var(np.array([[1e5, -2.0, 0.5, -1e5], [0.3, 0.1, -0.2, 0.4]]))
        w = Var(np.array([0.0, 0.7, 1.0, 0.0]))
        backward(reduce(x, mode, weights=w))
        assert np.all(x.grad[:, [0, 3]] == 0.0)
        assert np.all(w.grad[[0, 3]] == 0.0)
        assert np.all(np.isfinite(x.grad)) and np.all(np.isfinite(w.grad))

    def test_ndarray_weights_get_no_gradient_and_no_parent(self):
        x = Var(np.array([0.2, 0.9, -0.4]))
        out = tape.smooth_min(x, LogSumExp(4.0), weights=np.array([1.0, 0.5, 0.0]))
        assert out._parents == (x,)

    @pytest.mark.parametrize("reduce", REDUCERS, ids=["max", "min"])
    @pytest.mark.parametrize("mode", [Hard(), LogSumExp(4.0), SoftMax(4.0)])
    def test_ndarray_operand_is_a_constant(self, reduce, mode):
        rng = np.random.default_rng(13)
        x0 = rng.normal(0, 1, (3, 5))
        w0 = rng.uniform(0.1, 1.0, 5)
        seed = rng.normal(0, 1, 3)
        w = Var(w0)
        out = reduce(x0, mode, weights=w)
        taped_w = Var(w0)
        taped = reduce(Var(x0), mode, weights=taped_w)
        assert np.array_equal(out.data, taped.data)
        # hard weights only select entries, so nothing is left to differentiate
        assert out._parents == (() if isinstance(mode, Hard) else (w,))
        backward(out, seed)
        backward(taped, seed)
        if not isinstance(mode, Hard):
            assert np.array_equal(w.grad, taped_w.grad)
        assert reduce(x0, mode)._parents == ()

    @pytest.mark.parametrize("reduce", REDUCERS, ids=["max", "min"])
    @pytest.mark.parametrize("mode", [LogSumExp(2.0), SoftMax(2.0)])
    def test_all_zero_weight_window_raises(self, reduce, mode):
        x = Var(np.ones((2, 3)))
        for w in (np.zeros(3), Var(np.zeros(3)), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])):
            with pytest.raises(EmptyWindowError):
                reduce(x, mode, weights=w)


def old_pair(a, b, g, mode, sign):
    """``pair_smooth_max`` (sign=1) / ``pair_smooth_min`` (sign=-1) as two
    separate mirror-image bodies, written out in numpy: value and the
    un-reduced cotangents to both operands."""
    if isinstance(mode, Hard):
        first = a >= b if sign > 0 else a <= b
        return np.where(first, a, b), g * first, g * ~first
    tau = mode.temp
    if isinstance(mode, LogSumExp):
        if sign > 0:
            data = np.logaddexp(tau * a, tau * b) / tau
            return data, g * np.exp(tau * (a - data)), g * np.exp(tau * (b - data))
        data = -np.logaddexp(-tau * a, -tau * b) / tau
        return data, g * np.exp(tau * (data - a)), g * np.exp(tau * (data - b))
    if sign > 0:
        m = np.maximum(a, b)
        ea, eb = np.exp(tau * (a - m)), np.exp(tau * (b - m))
    else:
        m = np.minimum(a, b)
        ea, eb = np.exp(-tau * (a - m)), np.exp(-tau * (b - m))
    den = ea + eb
    data = (a * ea + b * eb) / den
    if sign > 0:
        return (data, g * (ea / den) * (1.0 + tau * (a - data)),
                g * (eb / den) * (1.0 + tau * (b - data)))
    return (data, g * (ea / den) * (1.0 - tau * (a - data)),
            g * (eb / den) * (1.0 - tau * (b - data)))


def old_hard_min(a, weights, g):
    """Hard ``smooth_min`` as ``neg(hard_max(neg(a), weights))``, in numpy."""
    masked = -a if weights is None else np.where(weights > 0, -a, -np.inf)
    sel = np.argmax(masked, axis=-1)[..., None]
    grad = np.zeros_like(a)
    np.put_along_axis(grad, sel, g[..., None], axis=-1)  # the two negations cancel
    return -np.take_along_axis(masked, sel, axis=-1)[..., 0], grad


def summed_to(g, shape):
    return g if g.shape == shape else g.sum(axis=0)


PAIR_MODES = [Hard()] + [m(t) for m in (LogSumExp, SoftMax) for t in (0.5, 3.0, 100.0)]


class TestPairPrimitiveDifferential:
    """The sign-parameterised primitives reproduce the old bodies bit for bit."""

    @staticmethod
    def operands(rng, case):
        if case == "ties":
            return (rng.integers(0, 3, (4, 9)).astype(float),
                    rng.integers(0, 3, (4, 9)).astype(float))
        if case == "batch_vs_row":
            return rng.normal(0, 2, (4, 9)), rng.integers(0, 2, 9).astype(float)
        if case == "row_vs_batch":
            return rng.normal(0, 2, 9), rng.normal(0, 2, (4, 9))
        return rng.normal(0, 2, (4, 9)), rng.normal(0, 2, (4, 9))

    @pytest.mark.parametrize("mode", PAIR_MODES)
    @pytest.mark.parametrize("case", ["random", "ties", "batch_vs_row", "row_vs_batch"])
    @pytest.mark.parametrize("pair, sign", [(tape.pair_smooth_max, 1.0), (tape.pair_smooth_min, -1.0)])
    def test_values_and_grads_bit_identical(self, pair, sign, case, mode):
        rng = np.random.default_rng(17)
        a0, b0 = self.operands(rng, case)
        g = rng.normal(0, 1, np.broadcast(a0, b0).shape)
        a, b = Var(a0), Var(b0)
        out = pair(a, b, mode)
        backward(out, g)
        data, ga, gb = old_pair(a0, b0, g, mode, sign)
        assert np.array_equal(out.data, data)
        assert np.array_equal(a.grad, summed_to(ga, a0.shape))
        assert np.array_equal(b.grad, summed_to(gb, b0.shape))

    def test_hard_ties_go_to_first_operand(self):
        for pair in (tape.pair_smooth_max, tape.pair_smooth_min):
            a, b = Var(np.array([2.0, 1.0])), Var(np.array([2.0, 1.0]))
            backward(pair(a, b, Hard()))
            np.testing.assert_array_equal(a.grad, [1.0, 1.0])
            np.testing.assert_array_equal(b.grad, [0.0, 0.0])

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("ties", [False, True])
    def test_hard_smooth_min_bit_identical(self, weighted, ties):
        rng = np.random.default_rng(18)
        x0 = rng.integers(0, 3, (5, 8)).astype(float) if ties else rng.normal(0, 2, (5, 8))
        w = None
        if weighted:
            w = (rng.random(8) > 0.4).astype(float)
            w[3] = 1.0
        g = rng.normal(0, 1, 5)
        x = Var(x0)
        out = tape.smooth_min(x, Hard(), w)
        backward(out, g)
        data, grad = old_hard_min(x0, w, g)
        assert np.array_equal(out.data, data)
        assert np.array_equal(x.grad, grad)

    def test_hard_smooth_min_is_one_node(self):
        x = Var(np.array([3.0, 1.0, 1.0]))
        out = tape.smooth_min(x, Hard())
        assert out._parents == (x,)
        with pytest.raises(EmptyWindowError):
            tape.smooth_min(x, Hard(), weights=np.zeros(3))


class TestSuffixReductions:
    @pytest.mark.parametrize("mode", [Hard(), LogSumExp(1.0), LogSumExp(15.0), SoftMax(1.0),
                                      SoftMax(15.0)])
    def test_matches_per_window_reduction(self, mode):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 2, 11)
        out = tape.cum_reduce(Var(x), mode, 1.0, reverse=True)
        expect = [ref_max(x[t:], mode) for t in range(11)]
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_suffix_hard_grad_first_occurrence(self):
        x = np.array([1.0, 5.0, 5.0, 0.0])
        v = Var(x)
        out = tape.cum_reduce(v, Hard(), 1.0, reverse=True)
        backward(out, seed=np.array([1.0, 1.0, 1.0, 1.0]))
        # suffixes: max at 1 (first of the tie), 1, 2, 3
        np.testing.assert_allclose(v.grad, [0.0, 2.0, 1.0, 1.0])

    @pytest.mark.parametrize("tau", [0.5, 4.0, 30.0])
    def test_suffix_lse_grad(self, tau):
        rng = np.random.default_rng(9)
        x0 = rng.normal(0, 1.5, 9)
        seed = rng.normal(0, 1, 9)
        v = Var(x0)
        backward(tape.cum_reduce(v, LogSumExp(tau), 1.0, reverse=True), seed=seed)
        def scalar(arr):
            out = tape.cum_reduce(Var(arr), LogSumExp(tau), 1.0, reverse=True)
            return float(np.sum(out.data * seed))
        np.testing.assert_allclose(v.grad, numeric_grad(scalar, x0), atol=1e-6)

    def test_suffix_min_duality(self):
        x = np.array([2.0, 9.0, 4.0])
        out = tape.cum_reduce(Var(x), Hard(), -1.0, reverse=True)
        np.testing.assert_allclose(out.data, [2.0, 4.0, 4.0])

    def test_softmax_suffix_values(self):
        x = np.array([1.0, 5.0, 5.0, 0.0])
        out = tape.cum_reduce(Var(x), SoftMax(1.0), -1.0, reverse=True)
        np.testing.assert_allclose(out.data, [ref_min(x[t:], SoftMax(1.0)) for t in range(4)],
                                   rtol=0, atol=1e-15)

    def test_unknown_mode_rejected(self):
        with pytest.raises(TypeError):
            tape.cum_reduce(Var(np.ones(3)), object(), 1.0, reverse=True)


def old_suffix_hard_max(x, g):
    """The suffix hard max and its vjp before ``cum_reduce``, in numpy."""
    data = np.flip(np.maximum.accumulate(np.flip(x, axis=-1), axis=-1), axis=-1)
    length = x.shape[-1]
    sel = np.empty(x.shape, dtype=np.intp)
    sel[..., -1] = length - 1
    best_idx = np.full(x.shape[:-1], length - 1, dtype=np.intp)
    best_val = x[..., -1].copy()
    for t in range(length - 2, -1, -1):
        upd = x[..., t] >= best_val
        best_val = np.where(upd, x[..., t], best_val)
        best_idx = np.where(upd, t, best_idx)
        sel[..., t] = best_idx
    rows = int(np.prod(x.shape[:-1], dtype=np.intp)) if x.ndim > 1 else 1
    acc = np.zeros((rows, length))
    np.add.at(acc, (np.arange(rows)[:, None], sel.reshape(rows, length)), g.reshape(rows, length))
    return data, acc.reshape(x.shape)


def old_suffix_lse_max(x, g, tau):
    """The suffix log-sum-exp max and its vjp before ``cum_reduce``, in numpy."""
    data = np.flip(np.logaddexp.accumulate(np.flip(tau * x, axis=-1), axis=-1), axis=-1) / tau
    length = x.shape[-1]
    grad = np.empty_like(x)
    acc = g[..., 0].copy()
    grad[..., 0] = np.exp(tau * (x[..., 0] - data[..., 0])) * acc
    for j in range(1, length):
        acc = g[..., j] + np.exp(tau * (data[..., j] - data[..., j - 1])) * acc
        grad[..., j] = np.exp(tau * (x[..., j] - data[..., j])) * acc
    return data, grad


class TestCumReduce:
    """``cum_reduce`` against the suffix scans it replaced and against
    per-window reductions in the prefix direction."""

    @staticmethod
    def operand(rng, ties):
        if ties:
            return rng.integers(0, 3, (3, 4, 17)).astype(float)
        return rng.normal(0, 2, (3, 4, 17))

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_suffix_hard_bit_identical_to_old_body(self, sign, ties):
        rng = np.random.default_rng(21)
        x0 = self.operand(rng, ties)
        g = rng.normal(0, 1, x0.shape)
        x = Var(x0)
        out = tape.cum_reduce(x, Hard(), sign, reverse=True)
        backward(out, g)
        # min was the negated max of the negated input
        data, grad = old_suffix_hard_max(sign * x0, sign * g)
        assert np.array_equal(out.data, sign * data)
        assert np.array_equal(x.grad, sign * grad)

    @pytest.mark.parametrize("tau", [0.5, 4.0, 100.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_suffix_lse_bit_identical_to_old_body(self, sign, tau):
        rng = np.random.default_rng(22)
        x0 = rng.normal(0, 2, (3, 4, 17))
        g = rng.normal(0, 1, x0.shape)
        x = Var(x0)
        out = tape.cum_reduce(x, LogSumExp(tau), sign, reverse=True)
        backward(out, g)
        data, grad = old_suffix_lse_max(sign * x0, sign * g, tau)
        assert np.array_equal(out.data, sign * data)
        # the vjp's doubling scan sums in another order than the old loop
        assert np.max(np.abs(x.grad - sign * grad)) <= 1e-14 * np.max(np.abs(grad))

    def test_lse_grad_scan_no_less_accurate_than_loop(self):
        # error of each vjp against the exact vjp of the same forward values,
        # summed in long double, relative to max|grad|
        ld = np.longdouble
        errors = {"scan": [], "loop": []}
        for tau in (0.5, 10.0, 500.0):
            for length in (256, 1024):
                rng = np.random.default_rng(length)
                x0, g = rng.normal(0, 2, (3, length)), rng.normal(0, 1, (3, length))
                x = Var(x0)
                out = tape.cum_reduce(x, LogSumExp(tau), 1.0, reverse=True)
                backward(out, g)
                weights = np.exp(ld(tau) * (x0.astype(ld)[..., None, :] - out.data.astype(ld)[..., :, None]))
                weights *= np.arange(length)[None, :] >= np.arange(length)[:, None]
                exact = np.einsum("...t,...tj->...j", g.astype(ld), weights)
                scale = float(np.max(np.abs(exact)))
                loop = old_suffix_lse_max(x0, g, tau)[1]
                for name, grad in (("scan", x.grad), ("loop", loop)):
                    errors[name].append(float(np.max(np.abs(grad - exact))) / scale)
        assert max(errors["scan"]) <= 1e-14
        assert max(errors["scan"]) <= max(errors["loop"])

    @pytest.mark.parametrize("mode", [Hard(), LogSumExp(0.5), LogSumExp(15.0), SoftMax(0.5),
                                      SoftMax(15.0)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_prefix_values_and_grads(self, sign, mode):
        rng = np.random.default_rng(23)
        x0 = self.operand(rng, ties=isinstance(mode, Hard))
        g = rng.normal(0, 1, x0.shape)
        reduce = tape.smooth_max if sign > 0 else tape.smooth_min
        x = Var(x0)
        out = tape.cum_reduce(x, mode, sign)
        backward(out, g)
        ref = Var(x0)
        windows = tape.stack_last([reduce(tape.take_last(ref, np.arange(t + 1)), mode)
                                   for t in range(x0.shape[-1])])
        backward(windows, g)
        np.testing.assert_allclose(out.data, windows.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, ref.grad, rtol=0, atol=1e-12)

    def test_prefix_hard_min_ties_go_to_earliest_index(self):
        x0 = np.array([3.0, 1.0, 2.0, 1.0, 1.0, 0.0, 0.0])
        x = Var(x0)
        out = tape.cum_reduce(x, Hard(), -1.0)
        backward(out, np.ones(7))
        np.testing.assert_array_equal(out.data, [3.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(x.grad, [1.0, 4.0, 0.0, 0.0, 0.0, 2.0, 0.0])
        # the pair chain it replaces keeps the earlier operand on a tie
        chain = Var(x0)
        run = [tape.index_last(chain, 0)]
        for t in range(1, 7):
            run.append(tape.pair_smooth_min(run[-1], tape.index_last(chain, t), Hard()))
        backward(tape.stack_last(run), np.ones(7))
        np.testing.assert_array_equal(chain.grad, x.grad)

    def test_is_one_node(self):
        x = Var(np.array([1.0, 3.0, 2.0]))
        for mode in (Hard(), LogSumExp(2.0), SoftMax(2.0)):
            for reverse in (False, True):
                assert tape.cum_reduce(x, mode, -1.0, reverse)._parents == (x,)


def long_double_softmax_cum(y, tau, cotangent):
    """Prefix softmax averages of ``y`` along the last axis in
    ``np.longdouble``, one window at a time, and the gradient of
    ``sum(cotangent * averages)``: ``d u_t / d y_j = w_tj (1 + tau (y_j -
    u_t))`` with the window's softmax weights ``w_tj``."""
    ld = np.longdouble
    y, g, tau = y.astype(ld), cotangent.astype(ld), ld(tau)
    out = np.empty(y.shape, dtype=ld)
    grad = np.zeros(y.shape, dtype=ld)
    for row in np.ndindex(y.shape[:-1]):
        for t in range(y.shape[-1]):
            win = y[row][:t + 1]
            w = np.exp(tau * (win - np.max(win)))
            w /= np.sum(w)
            out[row + (t,)] = np.sum(w * win)
            grad[row][:t + 1] += g[row + (t,)] * w * (1 + tau * (win - out[row + (t,)]))
    return out.astype(np.float64), grad.astype(np.float64)


class TestSoftmaxCumReduce:
    """The softmax scan against a long-double loop over its windows."""

    @pytest.mark.parametrize("length", [1, 2, 7, 64, 256])
    @pytest.mark.parametrize("sigma", [2.0, 50.0])
    @pytest.mark.parametrize("tau", [0.5, 10.0, 500.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("reverse", [False, True], ids=["prefix", "suffix"])
    @pytest.mark.parametrize("spread", ["wide", "clustered"])
    def test_matches_long_double(self, spread, reverse, sign, tau, sigma, length):
        rng = np.random.default_rng(length)
        if spread == "wide":
            x0 = rng.normal(0, sigma, (2, length))
        else:
            # every entry weighs in, far from zero
            x0 = sigma + rng.normal(0, 3.0 / tau, (2, length))
        g = rng.normal(0, 1, (2, length))
        x = Var(x0)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = tape.cum_reduce(x, SoftMax(tau), sign, reverse)
            backward(out, g)
        order = (lambda v: np.flip(v, axis=-1)) if reverse else (lambda v: v)
        data, grad = long_double_softmax_cum(order(sign * x0), tau, order(g))
        data, grad = sign * order(data), order(grad)
        assert np.max(np.abs(out.data - data)) <= 1e-13 * np.max(np.abs(data))
        assert np.max(np.abs(x.grad - grad)) <= 5e-11 * np.max(np.abs(grad))


def dfs_backward(out):
    """Two-phase depth-first topological backward: the ordering reference."""
    topo, seen, stack = [], set(), [(out, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    out.grad = np.ones_like(out.data)
    for node in reversed(topo):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)


def composite_smooth_max(a, mode, weights=None):
    """The smooth max as the graph of primitives it was built from before
    each reduction became one node."""
    a = tape.as_var(a)
    if isinstance(mode, Hard):
        return tape.hard_max(a, weights)
    m = Var(tape.hard_max(a, weights).data)
    z = (a - m.data[..., None]) * mode.temp
    if weights is None:
        e = tape.exp(z)
    else:
        w = weights.data if isinstance(weights, Var) else np.asarray(weights, dtype=np.float64)
        e = tape.mul(tape.as_var(weights), tape.exp(z + np.where(w > 0, 0.0, -np.inf)))
    if isinstance(mode, LogSumExp):
        return tape.log(tape.vsum(e, axis=-1)) * (1.0 / mode.temp) + m
    return tape.div(tape.vsum(tape.mul(a, e), axis=-1), tape.vsum(e, axis=-1))


def composite_smooth_min(a, mode, weights=None):
    return tape.neg(composite_smooth_max(tape.neg(tape.as_var(a)), mode, weights))


class TestBackward:
    def test_large_graph_no_recursion_error(self):
        v = Var(np.array([1.0]))
        out = v
        for _ in range(200_000):
            out = tape.neg(out)
        backward(out)
        np.testing.assert_allclose(v.grad, [1.0])

    def test_diamond_accumulation(self):
        v = Var(np.array([3.0]))
        out = v * 2.0 + v * 5.0
        backward(out)
        np.testing.assert_allclose(v.grad, [7.0])

    def test_reused_inner_node_sums_both_paths(self):
        # h feeds two branches built at different times; its closure must run
        # only after both have accumulated into h.grad
        def build(v):
            h = tape.exp(v * 0.5)
            left = tape.square(h)
            mid = tape.sigmoid(v)
            right = h * mid + 1.0
            return tape.vsum(left * right)
        check_grad(build, [0.3, -1.2])
        v = Var(np.array([0.3, -1.2]))
        backward(build(v))
        h = np.exp(0.5 * v.data)
        s = 1.0 / (1.0 + np.exp(-v.data))
        # out = h^3 s + h^2, dh/dv = h / 2
        expect = (3 * h**2 * s + 2 * h) * h / 2 + h**3 * s * (1 - s)
        np.testing.assert_allclose(v.grad, expect, rtol=1e-13)

    @pytest.mark.parametrize("mode", [LogSumExp(20.0), SoftMax(4.0)])
    def test_planning_gradient_matches_composite_graph(self, monkeypatch, mode):
        from stlmask import apps
        cfg = apps.PlannerConfig()
        rng = np.random.default_rng(13)
        u0 = rng.normal(0.3, 0.4, (cfg.horizon, 2))

        def grads(backprop):
            u, alpha, beta = Var(u0), Var(-1.3), Var(1.1)
            a, b = apps._ordered_bounds(alpha, beta)
            total = apps._planning_terms(u, a, b, cfg, mode.temp, 4.0)
            backprop(total)
            return float(total.data), u.grad, float(alpha.grad), float(beta.grad)

        monkeypatch.setattr(apps, "LogSumExp", type(mode))
        fused = grads(backward)
        monkeypatch.setattr(tape, "smooth_max", composite_smooth_max)
        monkeypatch.setattr(tape, "smooth_min", composite_smooth_min)
        reference = grads(dfs_backward)
        assert fused[0] == pytest.approx(reference[0], rel=0, abs=1e-12)
        np.testing.assert_allclose(fused[1], reference[1], rtol=0, atol=1e-12)
        assert np.max(np.abs(fused[1])) > 1e-3
        assert fused[2] == pytest.approx(reference[2], rel=0, abs=1e-12)
        assert fused[3] == pytest.approx(reference[3], rel=0, abs=1e-12)


class TestHardUntil:
    """``hard_until`` against the sequential recurrence and against the
    single-gather formulation it replaced in the masked engine."""

    @staticmethod
    def operands(rng, shape, ties):
        if ties:
            return (rng.integers(0, 3, shape).astype(float), rng.integers(0, 3, shape).astype(float))
        return rng.normal(0, 2, shape), rng.normal(0, 2, shape)

    @pytest.mark.parametrize("ties", [False, True], ids=["normal", "tied"])
    @pytest.mark.parametrize("batch", [(), (3,)], ids=["1d", "batched"])
    @pytest.mark.parametrize("length", [1, 2, 3, 7, 64, 240, 513])
    def test_bit_identical_to_recurrence_and_gather(self, length, batch, ties):
        rng = np.random.default_rng(length + 7 * len(batch) + 100 * ties)
        shape = batch + (length,)
        x0, y0 = self.operands(rng, shape, ties)
        g = rng.normal(0, 1, shape)
        seq, seq_l, seq_r = sequential_until(x0, y0, g)
        for build in (lambda l, r: tape.hard_until(l, r),
                      lambda l, r: gathered_until(l, r, length, Hard())):
            left, right = Var(x0), Var(y0)
            out = build(left, right)
            backward(out, g)
            assert np.array_equal(out.data, seq)
            assert np.array_equal(left.grad, seq_l)
            assert np.array_equal(right.grad, seq_r)

    def test_long_values_match_loop(self):
        rng = np.random.default_rng(31)
        x0, y0 = rng.normal(0, 2, 65536), rng.normal(0, 2, 65536)
        expect = np.empty(65536)
        u = -np.inf
        for t in range(65535, -1, -1):
            u = min(x0[t], max(y0[t], u))
            expect[t] = u
        assert np.array_equal(tape.hard_until(x0, y0).data, expect)

    def test_is_one_node(self):
        left, right = Var(np.array([1.0, -2.0, 3.0])), Var(np.array([0.5, 2.0, -1.0]))
        assert tape.hard_until(left, right)._parents == (left, right)


class TestLseUntil:
    """``lse_until``; its agreement with the gathered until and with a
    long-double reference is checked in ``test_masking.TestUntimedUntil``."""

    def test_is_one_node(self):
        left, right = Var(np.array([1.0, -2.0, 3.0])), Var(np.array([0.5, 2.0, -1.0]))
        assert tape.lse_until(left, right, LogSumExp(2.0))._parents == (left, right)

    def test_other_modes_rejected(self):
        # a softmax temperature would otherwise be read as a log-sum-exp one
        for mode in (Hard(), SoftMax(2.0)):
            with pytest.raises(TypeError):
                tape.lse_until(np.zeros(3), np.zeros(3), mode)

    @pytest.mark.parametrize("tau", [10.0, 500.0])
    def test_wide_range_operands_stay_finite_and_exact(self, tau):
        # exponents reach tau * 400: without the cap exp overflows and the
        # vjp forms inf * 0
        rng = np.random.default_rng(40)
        x0, y0 = rng.normal(0, 50, (2, 40)), rng.normal(0, 50, (2, 40))
        g = rng.normal(0, 1, (2, 40))
        left, right = Var(x0), Var(y0)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = tape.lse_until(left, right, LogSumExp(tau))
            backward(out, g)
        for got, expect in zip((out.data, left.grad, right.grad), long_double_until(x0, y0, tau, g)):
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13)

    def test_broadcast_operand_gets_summed_gradient(self):
        rng = np.random.default_rng(41)
        x0, y0 = rng.normal(0, 1, 6), rng.normal(0, 1, (3, 6))
        g = rng.normal(0, 1, (3, 6))
        left, right = Var(x0), Var(y0)
        backward(tape.lse_until(left, right, LogSumExp(3.0)), g)
        _, grad_l, grad_r = long_double_until(x0, y0, 3.0, g)
        np.testing.assert_allclose(left.grad, grad_l.sum(axis=0), rtol=0, atol=1e-13)
        np.testing.assert_allclose(right.grad, grad_r, rtol=0, atol=1e-13)
