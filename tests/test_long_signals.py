"""The three engines at hundreds of samples, with windows scaled to the
signal: timed windows up to a quarter of it wide and starting anywhere in
its first half, smooth intervals, and until nodes nested in other temporal
operators.  The short corpora reach none of this: their windows are at most
6 wide, and ``lse_until`` splits their untimed until into tiles of a few
rows.

The recurrent engine takes no smooth interval, and in softmax mode it nests
the reductions of untimed operators and of until's prefix mins, so it is
compared only where it computes the same function as the masked engine."""

import numpy as np
import pytest

from helpers import MODES, long_cases, temporal_nodes
from stlmask.core import Hard, LogSumExp, SmoothInterval, SoftMax, StepInterval
from stlmask.formula import Until
from stlmask.masking import robustness_trace, trace_var
from stlmask.recurrent import trace_recurrent, trace_var_recurrent
from stlmask.reference import trace_ref
from stlmask.tape import Var, as_var, backward

CASES = long_cases()


def recurrent_agrees(f, mode) -> bool:
    nodes = temporal_nodes(f)
    if any(isinstance(g.interval, SmoothInterval) for g in nodes):
        return False
    return not (isinstance(mode, SoftMax)
                and any(g.interval is None or isinstance(g, Until) for g in nodes))


def relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


@pytest.mark.parametrize("k", range(len(CASES)))
def test_masked_values_match_the_reference(k):
    f, signals, cfg, _ = CASES[k]
    assert relative_gap(robustness_trace(f, signals, cfg), trace_ref(f, signals, cfg)) <= 1e-9


@pytest.mark.parametrize("k", [k for k, c in enumerate(CASES) if recurrent_agrees(c[0], c[2].mode)])
def test_masked_values_and_gradients_match_the_recurrent_engine(k):
    f, signals, cfg, cotangent = CASES[k]
    masked = robustness_trace(f, signals, cfg)
    assert relative_gap(trace_recurrent(f, signals, cfg), masked) <= 1e-9
    if isinstance(cfg.mode, SoftMax):
        return
    grads = []
    for build in (trace_var, trace_var_recurrent):
        channels = {name: Var(signals[name].values) for name in signals.names()}
        backward(as_var(build(f, channels, signals.length, cfg)), cotangent)
        grads.append(np.stack([np.zeros(signals.length) if v.grad is None else v.grad
                               for v in channels.values()]))
    np.testing.assert_allclose(grads[1], grads[0], rtol=0, atol=1e-9)


def test_corpus_reaches_the_long_signal_paths():
    # each mode with each padding, smooth F and G, timed windows wider than
    # the short corpora's, and an untimed log-sum-exp until whose gradient
    # is compared between the engines
    assert len({(c[2].mode, c[2].padding.kind) for c in CASES}) == 2 * len(MODES)
    nodes = [(g, c) for c in CASES for g in temporal_nodes(c[0])]
    smooth = {type(g).__name__ for g, _ in nodes if isinstance(g.interval, SmoothInterval)}
    assert smooth == {"Eventually", "Always"}
    assert max(g.interval.b - g.interval.a for g, _ in nodes
               if isinstance(g.interval, StepInterval)) > 60
    assert any(isinstance(g, Until) and g.interval is None and isinstance(c[2].mode, LogSumExp)
               and recurrent_agrees(c[0], c[2].mode) for g, c in nodes)
    assert any(isinstance(c[2].mode, Hard) and isinstance(g, Until) for g, c in nodes)
