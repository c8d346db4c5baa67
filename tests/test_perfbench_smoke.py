"""The benchmark's traced runs still work against this source tree.

``perfbench/tracer.py`` swaps module attributes of ``masking``, ``recurrent``
and ``tape`` for wrappers while a traced op runs, so renaming or rerouting
those entry points can break the benchmark without breaking any library test.
Each workload runs for one second with tracing on (5-8 s per process).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: tape primitives whose traced call counters must read above 0, by workload
COUNTED = {"batch_grad": ("pair_smooth", "take_last"),
           "recurrent_baseline": ("hard_max", "smooth_max")}


@pytest.mark.parametrize("workload", ["monitor", "batch_grad", "recurrent_baseline", "descent"])
def test_traced_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    # the tracer counts calls through these tape attributes; a refactor that
    # routes around one of them reads 0 here.  The masked engine's timed
    # windows reach no window reduction, so the recurrent engine's windows
    # stand for hard_max and smooth_max
    for prim in COUNTED.get(workload, ()):
        assert result["metrics"][f"tape.{prim}.calls"]["value"] > 0, prim
