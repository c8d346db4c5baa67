"""Shared corpus generation for the equivalence and gradient suites, the
materialized keep-masks that the masked engine's gathers are checked against,
and a guard for code that must build no tape node."""

import contextlib

import numpy as np

from stlmask import tape
from stlmask.core import (
    Hard,
    LogSumExp,
    NamedSignals,
    PaddingPolicy,
    SemanticsConfig,
    ShapeError,
    SmoothInterval,
    SoftMax,
    StepInterval,
    window_size,
)
from stlmask.formula import TRUE, Always, And, Eventually, Not, Or, Pred, Until

CHANNELS = ("x", "y")
#: hard, and each smooth reduction at a low, a middle and a high temperature
MODES = (Hard(), LogSumExp(0.5), LogSumExp(10.0), LogSumExp(500.0),
         SoftMax(0.5), SoftMax(2.0), SoftMax(10.0))


# ---------------------------------------------------------------------------
# Materialized keep-masks: entry (r, t) == True keeps row r of the unrolled
# signal in column t's reduction
# ---------------------------------------------------------------------------

def build_subsignal_mask(length: int, rows: int) -> np.ndarray:
    """Keep entry (r, t) iff ``r >= t``: column t starts at its own timestep."""
    if not (rows >= length >= 1):
        raise ShapeError(f"need rows >= length >= 1, got rows={rows}, length={length}")
    r = np.arange(rows)[:, None]
    t = np.arange(length)[None, :]
    return r >= t


def build_time_mask(length: int, iv: StepInterval) -> np.ndarray:
    """Keep entry (r, t) iff ``t + a <= r <= t + b``; rows = length + b."""
    rows = length + iv.b
    r = np.arange(rows)[:, None]
    t = np.arange(length)[None, :]
    return (r >= t + iv.a) & (r <= t + iv.b)


def combine_masks(subsig: np.ndarray, time: np.ndarray) -> np.ndarray:
    """Intersection of the kept regions."""
    if subsig.shape != time.shape:
        raise ShapeError(f"mask shapes differ: {subsig.shape} vs {time.shape}")
    return subsig & time


def build_unrolled(values, rows: int, padding: PaddingPolicy) -> np.ndarray:
    """(rows, L) array whose every column is the padded input."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    length = values.shape[0]
    if rows < length:
        raise ShapeError(f"rows {rows} < signal length {length}")
    pad_value = values[-1] if padding.kind == "last" else padding.value
    padded = np.concatenate([values, np.full(rows - length, pad_value)])
    return np.repeat(padded[:, None], length, axis=1)


def build_until_masks(length: int, iv: StepInterval | None):
    """3D keep-masks for the until construction, shape (rows, L, K).

    Slice k of the left mask keeps, in column t, rows ``t .. t+a+k``; slice k
    of the right mask keeps only row ``t+a+k``.  Without an interval the
    window spans the remaining signal (a=0, K=L, no padding rows) and slices
    reaching past the signal end keep nothing in that column.
    """
    if iv is None:
        a, count, rows = 0, length, length
    else:
        a, count, rows = iv.a, window_size(iv), length + iv.b
    r = np.arange(rows)[:, None, None]
    t = np.arange(length)[None, :, None]
    k = np.arange(count)[None, None, :]
    end = t + a + k
    valid = end <= rows - 1
    left = (r >= t) & (r <= end) & valid
    right = (r == end) & valid
    return left, right


def random_formula(rng, depth, max_window=6, until_ok=True, interval_scale=None):
    """Random AST; leaves are predicates over CHANNELS, plus occasional TRUE.

    With ``interval_scale`` L, a timed interval starts below L/2 and is
    narrower than L/4, and ``F``/``G`` sometimes take a smooth interval
    instead; without it, the draws are those the corpora were built from.
    """
    ops = ["pred", "true", "not", "and", "or", "F", "G"] + (["U"] if until_ok else [])
    weights = np.array([0.26, 0.04, 0.10, 0.13, 0.13, 0.12, 0.12] + ([0.10] if until_ok else []))
    op = "pred" if depth == 0 and rng.random() > 0.08 else (
        "true" if depth == 0 else rng.choice(ops, p=weights / weights.sum()))

    def interval(smooth_ok=True):
        if rng.random() < 0.35:
            return None
        if interval_scale is None:
            a = int(rng.integers(0, 22))
            return StepInterval(a, a + int(rng.integers(0, max_window)))
        if smooth_ok and rng.random() < 0.3:
            a = float(rng.uniform(0.0, 0.8))
            return SmoothInterval(a, float(rng.uniform(a + 0.05, 1.0)),
                                  float(rng.choice([0.5, 4.0, 40.0])))
        a = int(rng.integers(0, interval_scale // 2))
        return StepInterval(a, a + int(rng.integers(0, interval_scale // 4)))

    def sub():
        return random_formula(rng, depth - 1, max_window, until_ok, interval_scale)

    if op == "pred":
        return Pred(str(rng.choice(CHANNELS)), str(rng.choice([">", "<", ">=", "<="])),
                    float(np.round(rng.normal(0, 1.5), 3)))
    if op == "true":
        return TRUE
    if op == "not":
        return Not(sub())
    if op == "and":
        return And(sub(), sub())
    if op == "or":
        return Or(sub(), sub())
    if op == "F":
        return Eventually(sub(), interval())
    if op == "G":
        return Always(sub(), interval())
    return Until(sub(), sub(), interval(smooth_ok=False))


def random_signals(rng, max_len=40) -> NamedSignals:
    length = int(rng.integers(1, max_len + 1))
    return NamedSignals.from_arrays(
        {name: rng.normal(0, 2, length) for name in CHANNELS})


def random_padding(rng) -> PaddingPolicy:
    if rng.random() < 0.5:
        return PaddingPolicy.last_value()
    return PaddingPolicy.constant(float(np.round(rng.uniform(-5, 5), 3)))


def corpus_config(rng, mode) -> SemanticsConfig:
    # top_value kept small so pairwise-vs-flat LSE rounding stays far below
    # the 1e-9 equivalence tolerance
    return SemanticsConfig(mode=mode, padding=random_padding(rng), top_value=100.0)


def equivalence_case(rng, depth=3, max_len=40):
    signals = random_signals(rng, max_len)
    f = random_formula(rng, int(rng.integers(1, depth + 1)))
    return f, signals


def temporal_nodes(f):
    """The ``F``, ``G`` and ``U`` nodes of ``f``, outermost first."""
    own = [f] if isinstance(f, (Eventually, Always, Until)) else []
    return own + [g for child in f.children() for g in temporal_nodes(child)]


def long_cases():
    """28 ``(formula, signals, cfg, cotangent)`` at 200 to 400 samples: depth-2
    random formulas with at least one temporal operator and intervals scaled
    to the signal length.  Case ``k`` runs in ``MODES[k % 7]``, with
    last-value padding in the first half of every 14 cases and constant
    padding in the second."""
    rng = np.random.default_rng(15)
    out = []
    for k in range(28):
        length = int(rng.integers(200, 401))
        f = TRUE
        while not temporal_nodes(f):
            f = random_formula(rng, 2, interval_scale=length)
        signals = NamedSignals.from_arrays({name: rng.normal(0, 2, length) for name in CHANNELS})
        padding = PaddingPolicy.last_value() if k % 14 < 7 else PaddingPolicy.constant(0.75)
        cfg = SemanticsConfig(mode=MODES[k % 7], padding=padding, top_value=100.0)
        out.append((f, signals, cfg, rng.normal(0, 1, length)))
    return out


def vars_built(fn, *args):
    """``fn(*args)`` and the number of :class:`stlmask.tape.Var` it
    constructed, read off the tape's creation counter."""
    start = next(tape._creation)
    out = fn(*args)
    return out, next(tape._creation) - start - 1


@contextlib.contextmanager
def builds_no_var():
    """Fails the test when the block constructs a :class:`stlmask.tape.Var`:
    every construction draws one number from the tape's creation counter."""
    start = next(tape._creation)
    yield
    made = next(tape._creation) - start - 1
    assert made == 0, f"{made} Var constructions"


def sequential_until(left, right, cotangent):
    """Untimed hard until by its recurrence ``u_t = min(l_t, max(r_t, u_{t+1}))``
    with ``u_L = -inf``, one step at a time along the last axis.

    Returns the trace and the gradients of ``sum(cotangent * trace)`` with
    respect to both operands: a max tie goes to ``r_t`` and a min tie to
    ``l_t``, and each entry follows its chain of sources to the step that
    stops it.
    """
    left, right = np.broadcast_arrays(np.asarray(left, dtype=np.float64),
                                      np.asarray(right, dtype=np.float64))
    g = np.broadcast_to(np.asarray(cotangent, dtype=np.float64), left.shape)
    length = left.shape[-1]
    out = np.empty(left.shape)
    # source of each entry: (index, from_left) per batch element
    src_idx = np.empty(left.shape, dtype=np.intp)
    src_left = np.empty(left.shape, dtype=bool)
    nxt = np.full(left.shape[:-1], -np.inf)
    nxt_idx = np.zeros(left.shape[:-1], dtype=np.intp)
    nxt_left = np.zeros(left.shape[:-1], dtype=bool)
    for t in range(length - 1, -1, -1):
        l, r = left[..., t], right[..., t]
        take_r = r >= nxt
        v = np.where(take_r, r, nxt)
        take_l = l <= v
        out[..., t] = np.where(take_l, l, v)
        src_idx[..., t] = np.where(take_l | take_r, t, nxt_idx)
        src_left[..., t] = np.where(take_l, True, np.where(take_r, False, nxt_left))
        nxt, nxt_idx, nxt_left = out[..., t], src_idx[..., t], src_left[..., t]
    grad_l = np.zeros(left.shape)
    grad_r = np.zeros(left.shape)
    for pos in np.ndindex(left.shape):
        target = grad_l if src_left[pos] else grad_r
        target[pos[:-1] + (src_idx[pos],)] += g[pos]
    return out, grad_l, grad_r


def gathered_until(left, right, length, mode):
    """Untimed until as one gather of every start's window: prefix mins
    along the window, paired with the right operand, max over offsets.  The
    single-gather formulation the masked engine used for untimed until in
    hard and log-sum-exp mode, kept as a reference for ``tape.hard_until``
    and ``tape.lse_until``."""
    from stlmask import tape

    pos = np.arange(length)[:, None] + np.arange(length)[None, :]
    idx = np.minimum(pos, length - 1)
    pm = tape.cum_reduce(tape.take_last(left, idx), mode, -1.0)
    stacked = tape.pair_smooth_min(pm, tape.take_last(right, idx), mode)
    return tape.smooth_max(stacked, mode, weights=(pos <= length - 1).astype(np.float64))


def long_double_until(left, right, tau, cotangent):
    """Untimed log-sum-exp until in ``np.longdouble``, one start at a time.

    For start ``t`` and window end ``j >= t`` the pairing is
    ``v_tj = -log(sum_{i=t..j} exp(-tau l_i) + exp(-tau r_j)) / tau`` and the
    trace is ``out_t = log(sum_j exp(tau v_tj)) / tau``, all in log space.
    Returns the trace and the gradients of ``sum(cotangent * trace)`` with
    respect to both operands, rounded to float64: with the softmax weights
    ``w_tj = exp(tau (v_tj - out_t))``, ``d out_t / d r_j = w_tj
    exp(-tau r_j + tau v_tj)`` and ``d out_t / d l_i = sum_{j >= i} w_tj
    exp(-tau l_i + tau v_tj)``.
    """
    ld = np.longdouble
    left, right = np.broadcast_arrays(np.asarray(left, dtype=ld), np.asarray(right, dtype=ld))
    g = np.broadcast_to(np.asarray(cotangent, dtype=ld), left.shape)
    tau = ld(tau)
    out = np.empty(left.shape, dtype=ld)
    grad_l = np.zeros(left.shape, dtype=ld)
    grad_r = np.zeros(left.shape, dtype=ld)
    for row in np.ndindex(left.shape[:-1]):
        neg_l, neg_r = -tau * left[row], -tau * right[row]
        for t in range(left.shape[-1]):
            # tau v_tj = -log_den
            log_den = np.logaddexp(np.logaddexp.accumulate(neg_l[t:]), neg_r[t:])
            peak = np.max(-log_den)
            tau_out = peak + np.log(np.sum(np.exp(-log_den - peak)))
            out[row + (t,)] = tau_out / tau
            # log of w_tj exp(tau v_tj), summed over j >= i for the left gradient
            log_w = -2 * log_den - tau_out
            grad_r[row][t:] += g[row + (t,)] * np.exp(neg_r[t:] + log_w)
            tail = np.flip(np.logaddexp.accumulate(np.flip(log_w)))
            grad_l[row][t:] += g[row + (t,)] * np.exp(neg_l[t:] + tail)
    return out.astype(np.float64), grad_l.astype(np.float64), grad_r.astype(np.float64)
