"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads monitor,descent]
        [--trace 0|1] [--seconds S] [--label NAME --append perfbench/trajectory.json]

Each run is a separate ``perfbench/run.py`` process.  For every workload and
metric the sweep prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median; for ``--trace 0`` it flags end-to-end metrics whose spread exceeds a
third of their bound in BENCHMARK.json.  ``--append`` adds the summary, with
the environment block of the first run, as one entry of a trajectory file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--label")
    parser.add_argument("--append", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary, env, ok = {}, None, True
    for workload in args.workloads.split(","):
        values, attempted, failed = {}, 0, 0
        for seed in _seeds(args.seeds):
            detail, result = run_once(workload, seed, args.seconds, args.trace)
            env = env or detail["env"]
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: NOT CORRECT {detail['problems'][:3]}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in list(result["metrics"].items())[:8]), flush=True)
        rows = {name: summarise(v) for name, v in values.items()}
        summary[workload] = {"attempted": attempted, "failed": failed, "metrics": rows}
        for name, row in rows.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and row["spread"] > bound / 3:
                flag = "  > bound/3" if row["spread"] <= bound else "  > BOUND"
            print(f"  {workload:18s} {name:28s} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.4f}{flag}", flush=True)

    if args.append:
        path = args.append if args.append.is_absolute() else ROOT / args.append
        entries = json.loads(path.read_text()) if path.exists() else []
        entries.append({"label": args.label, "date": datetime.date.today().isoformat(),
                        "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                        "env": env, "workloads": summary})
        path.write_text(json.dumps(entries, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
