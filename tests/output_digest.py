"""SHA-256 digests of the library's outputs, for checking that a refactor
leaves every value and gradient bit for bit as it was.

Run it on two checkouts and compare the printed lines::

    PYTHONPATH=src python tests/output_digest.py

Three sets of results are hashed:

* masked: traces and channel gradients (with a random cotangent) of 300
  random formulas on random signals, in Hard, LogSumExp (tau = 0.5, 10, 500)
  and SoftMax (tau = 0.5, 2, 10) semantics, with random padding;
* recurrent: the same for the recurrent engine on the first 60 cases;
* plan and mine: ``plan_trajectory`` and ``mine_interval`` results at 1000
  steps for seeds 0-2.

Arrays are hashed after ``+ 0.0``, so a signed zero does not count as a
change.  A case that raises hashes the exception's type instead.  The file
name keeps pytest from collecting it.
"""

import hashlib

import numpy as np

from helpers import random_formula, random_signals
from stlmask import apps, masking, recurrent, tape
from stlmask.core import Hard, LogSumExp, PaddingPolicy, SemanticsConfig, SoftMax, StlError
from stlmask.tape import Var

MODES = (Hard(), LogSumExp(0.5), LogSumExp(10.0), LogSumExp(500.0),
         SoftMax(0.5), SoftMax(2.0), SoftMax(10.0))
CASES = 300
RECURRENT_CASES = 60
DESCENT_STEPS = 1000
SEEDS = (0, 1, 2)


class Digest:
    def __init__(self):
        self._sha = hashlib.sha256()

    def add(self, *values):
        for v in values:
            if isinstance(v, str):
                self._sha.update(v.encode())
            else:
                arr = np.ascontiguousarray(np.asarray(v, dtype=np.float64) + 0.0)
                self._sha.update(str(arr.shape).encode())
                self._sha.update(arr.tobytes())

    def hex(self) -> str:
        return self._sha.hexdigest()[:16]


def cases():
    """``(formula, signals, padding, cotangent)`` for every case, fixed by one seed."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(CASES):
        f = random_formula(rng, int(rng.integers(1, 4)))
        signals = random_signals(rng)
        pad = (PaddingPolicy.constant(float(rng.normal(0, 2))) if rng.random() < 0.5
               else PaddingPolicy.last_value())
        out.append((f, signals, pad, rng.normal(0, 1, signals.length)))
    return out


def engine_digest(trace_var, selected) -> str:
    digest = Digest()
    for f, signals, pad, cotangent in selected:
        for mode in MODES:
            channels = {name: Var(signals[name].values) for name in signals.names()}
            try:
                out = trace_var(f, channels, signals.length, SemanticsConfig(mode=mode, padding=pad))
                tape.backward(out, cotangent)
            except StlError as exc:
                digest.add(type(exc).__name__)
                continue
            digest.add(out.data)
            for name in sorted(channels):
                grad = channels[name].grad
                digest.add("none" if grad is None else grad)
    return digest.hex()


def main():
    selected = cases()
    print("masked   ", engine_digest(masking.trace_var, selected))
    print("recurrent", engine_digest(recurrent.trace_var_recurrent, selected[:RECURRENT_CASES]))
    for seed in SEEDS:
        plan = apps.plan_trajectory(apps.PlannerConfig(steps=DESCENT_STEPS), seed=seed)
        digest = Digest()
        digest.add(plan["controls"], plan["states"], plan["interval"],
                   plan["objective_history"], [plan["final_robustness"]])
        print(f"plan {seed}   ", digest.hex())
    for seed in SEEDS:
        mine = apps.mine_interval(apps.synth_step_dataset(seed), apps.MiningConfig(steps=DESCENT_STEPS))
        digest = Digest()
        digest.add(mine["interval"], mine["loss_history"])
        print(f"mine {seed}   ", digest.hex())


if __name__ == "__main__":
    main()
