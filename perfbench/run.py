"""stlmask benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; stlmask is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from a run whose odd ops are traced and whose even ops are
not, so that the tracing overhead is measured in the same run.  The line
before it holds the details: the environment, every end-to-end metric
including ``error_rate``, the tail percentile and its sample count, and the
problems any check found.  ``--self-test`` corrupts the output of the first
timed op before it is checked; the run must then report it as failed.

See perfbench/README.md for the workloads, the metrics and the predictions.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# set-up is timed from here: numpy and stlmask are imported below
_T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
#: extra processes that repeat set-up from a fresh interpreter; setup_s is the
#: median of these and the measuring process's own set-up
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
#: op 0 is set-up's cold op, op 1 a warm-up op
FIRST_TIMED_OP = 2
#: the tail is reported at one of these percentiles, with at least
#: TAIL_BEYOND samples beyond it; few rungs, because a workload whose op count
#: crosses a rung between runs reports a different percentile
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

SPEC_TAGS = ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6", "until10", "smooth_g")
GRAD_TAGS = ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6", "smooth_g")
ENGINE_TAGS = ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6")
MEM_TAGS = SPEC_TAGS + ("plan", "mine")
UNTIL_TAGS = ("phi3", "until10")
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s", "error_rate": "ratio"}


def _import_stlmask():
    """Import stlmask from this checkout's src/, never from anywhere else."""
    if not (SRC / "stlmask" / "__init__.py").is_file():
        sys.exit(f"perfbench: no stlmask sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import stlmask

    if SRC not in Path(stlmask.__file__).resolve().parents:
        sys.exit(f"perfbench: imported stlmask from {stlmask.__file__}, not from {SRC}")


def per_layer_units() -> dict:
    units = {"masking.fwd_ms": "ms"}
    units.update({f"masking.fwd_ms.{t}": "ms" for t in SPEC_TAGS})
    units["masking.until_ms"] = "ms"
    units["tape.backward_ms"] = "ms"
    units.update({f"tape.backward_ms.{t}": "ms" for t in GRAD_TAGS})
    for name in ("tape.nodes", "tape.take_last.calls", "tape.hard_max.calls",
                 "tape.smooth_max.calls", "tape.pair_smooth.calls"):
        units[name] = "count"
    units["tape.take_last.fwd_ms"] = "ms"
    units["autodiff.value_and_grad_ms"] = "ms"
    units["recurrent.fwd_ms"] = "ms"
    units.update({f"recurrent.fwd_ms.{t}": "ms" for t in ENGINE_TAGS})
    units.update({"apps.plan.step_ms": "ms", "apps.mine.step_ms": "ms",
                  "apps.plan.trace_var_ms": "ms", "apps.plan.backward_ms": "ms",
                  "tape.nodes.plan_step": "count", "tape.nodes.mine_step": "count"})
    units.update({f"mem.peak_mb.{t}": "MB" for t in MEM_TAGS})
    units.update({"trace.overhead_pct": "%", "trace.coverage_pct": "%"})
    return units


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "stlmask").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond it) of the op latency tail.

    The highest of TAIL_PERCENTILES with at least TAIL_BEYOND samples beyond
    it, by nearest rank; the median when no percentile has that many.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    pct = max((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= TAIL_BEYOND), default=50.0)
    rank = max(math.ceil(pct / 100.0 * n), 1)
    return ordered[rank - 1], pct, n - rank


def run_ops(wl, seconds: float, null, tracer, self_test: bool) -> dict:
    """The timed phase: ops 2, 3, ... until their summed latency reaches ``seconds``.

    With a ``tracer``, odd ops are traced and even ops run untraced.
    """
    latencies, traced, problems = [], [], []
    failed = 0
    busy = 0.0
    i = FIRST_TIMED_OP - 1
    kept = None
    while busy < seconds:
        i += 1
        inp = wl.inputs(i)
        tr = tracer if tracer is not None and i % 2 else null
        out = None
        with tr.op(i):
            start = time.perf_counter()
            try:
                out = wl.op(inp, tr)
            except Exception:  # an op that raises counts as failed; the run goes on
                problems.append(f"op {i} raised:\n{traceback.format_exc()}")
            latency = time.perf_counter() - start
        busy += latency
        latencies.append(latency)
        traced.append(tr is not null)
        if out is None:
            failed += 1
            continue
        if i == FIRST_TIMED_OP:
            kept = (i, inp, out)
            if self_test:
                out = wl.corrupt(out)
        try:
            found = wl.check(i, inp, out)
        except Exception:  # a malformed output can break the check itself
            found = [f"check raised:\n{traceback.format_exc()}"]
        if found:
            failed += 1
            problems += [f"op {i}: {p}" for p in found]
    return {"latencies": latencies, "traced": traced, "failed": failed, "busy": busy,
            "problems": problems, "kept": kept, "rss_mb": _peak_rss_mb()}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probes(args) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def layer_metrics(wl, tracer, census, memory, phase) -> tuple:
    lat = phase["latencies"]
    traced = [x for x, t in zip(lat, phase["traced"]) if t]
    plain = [x for x, t in zip(lat, phase["traced"]) if not t]
    ops = [FIRST_TIMED_OP + k for k, t in enumerate(phase["traced"]) if t]
    summaries = [tracer.op_summary(op, x) for op, x in zip(ops, traced)]

    def med(fn):
        return statistics.median(fn(s) for s in summaries) if summaries else 0.0

    def span_ms(name, tags=None, per=1):
        if tags is None:
            return med(lambda s: s["by_name"][name]) * 1e3 / per
        return med(lambda s: sum(s["by_tag"][(name, t)] for t in tags)) * 1e3 / per

    m = {"masking.fwd_ms": span_ms("masking.fwd")}
    m.update({f"masking.fwd_ms.{t}": span_ms("masking.fwd", (t,)) for t in SPEC_TAGS})
    m["masking.until_ms"] = span_ms("masking.fwd", UNTIL_TAGS)
    m["tape.backward_ms"] = span_ms("tape.backward")
    m.update({f"tape.backward_ms.{t}": span_ms("tape.backward", (t,)) for t in GRAD_TAGS})
    m["tape.nodes"] = int(sum(census.nodes.values()))
    for prim in ("take_last", "hard_max", "smooth_max", "pair_smooth"):
        m[f"tape.{prim}.calls"] = int(round(med(lambda s: s["calls"][prim])))
    m["tape.take_last.fwd_ms"] = med(lambda s: s["prim_s"]["take_last"]) * 1e3
    m["autodiff.value_and_grad_ms"] = span_ms("autodiff.value_and_grad")
    m["recurrent.fwd_ms"] = span_ms("recurrent.fwd")
    m.update({f"recurrent.fwd_ms.{t}": span_ms("recurrent.fwd", (t,)) for t in ENGINE_TAGS})
    plan_steps, mine_steps = max(wl.plan_steps, 1), max(wl.mine_steps, 1)
    m["apps.plan.step_ms"] = span_ms("apps.plan", per=plan_steps)
    m["apps.mine.step_ms"] = span_ms("apps.mine", per=mine_steps)
    m["apps.plan.trace_var_ms"] = span_ms("masking.fwd", ("plan",), per=plan_steps)
    m["apps.plan.backward_ms"] = span_ms("tape.backward", ("plan",), per=plan_steps)
    for tag in ("plan", "mine"):
        calls = census.backward_calls[tag]
        m[f"tape.nodes.{tag}_step"] = census.backward_nodes[tag] // calls if calls else 0
    m.update({f"mem.peak_mb.{t}": memory.peak.get(t, 0) / 2**20 for t in MEM_TAGS})
    m["trace.overhead_pct"] = (100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
                               if plain and traced else 0.0)
    m["trace.coverage_pct"] = 100.0 * med(lambda s: s["coverage"])

    self_ms = {}
    for s in summaries:
        for name in s["self_s"]:
            self_ms.setdefault(name, []).append(s["self_s"][name] * 1e3)
    detail = {"traced_ops": len(ops), "untraced_ops": len(plain),
              "self_ms_per_op": {k: statistics.median(v) for k, v in sorted(self_ms.items())}}
    return m, detail


def write_spans(args, tracer, detail) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    payload = {"fields": ["name", "tag", "start_s", "end_s", "parent", "op"],
               "spans": tracer.spans, **detail}
    path.write_text(json.dumps(payload))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt the first timed op's output; the run must count it as failed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_stlmask()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    null = tracing.NullTracer()
    inp0 = wl.inputs(0)
    out0 = wl.op(inp0, null)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    problems = [f"op 0: {p}" for p in wl.check(0, inp0, out0)]
    if not wl.check(0, inp0, wl.corrupt(out0)):
        problems.append("gate self-test: a deliberately wrong output passed the check")
    # the second op of a process is still up to 2x slower than later ones
    # (phi4's gradient 10x), so one more op runs before timing
    warm_id = FIRST_TIMED_OP - 1
    warm = wl.inputs(warm_id)
    problems += [f"op {warm_id}: {p}" for p in wl.check(warm_id, warm, wl.op(warm, null))]

    tracer = tracing.Tracer() if args.trace else None
    phase = run_ops(wl, args.seconds, null, tracer, args.self_test)
    problems += phase["problems"]
    if phase["kept"] is not None:
        problems += [f"run check: {p}" for p in wl.run_checks(*phase["kept"])]

    lat = phase["latencies"]
    attempted, failed = len(lat), phase["failed"]
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    if args.trace:
        census, memory = tracing.Census(), tracing.MemoryTracer()
        for extra in (census, memory):
            with extra.op(0):
                wl.op(inp0, extra)
        values, layer_detail = layer_metrics(wl, tracer, census, memory, phase)
        layer_detail["spans_file"] = str(write_spans(args, tracer, layer_detail).relative_to(ROOT))
        detail.update(layer_detail)
        units = per_layer_units()
    else:
        setup_samples = [setup_s] + setup_probes(args)
        value, pct, beyond = tail(lat)
        values = {
            "ops_per_s": attempted / phase["busy"],
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": value * 1e3,
            "peak_rss_mb": phase["rss_mb"],
            "setup_s": statistics.median(setup_samples),
            "error_rate": failed / attempted,
        }
        units = END_TO_END_UNITS
        detail.update({"end_to_end": {k: {"value": values[k], "unit": u} for k, u in units.items()},
                       "op_tail_percentile": pct, "op_tail_beyond": beyond,
                       "samples": attempted, "setup_samples_s": setup_samples})
        # zero whenever the run is correct, so the result line carries it as failed/attempted
        del values["error_rate"]
    detail["problems"] = problems[:20]
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
