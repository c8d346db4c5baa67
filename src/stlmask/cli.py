"""Command-line interface: eval, trace, bench, mine, plan.

Results are printed as JSON to stdout (or ``--out``); diagnostics go to
stderr.  Exit codes: 0 success, 2 parse/validation/config errors, 3 diverged
optimization.  Any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing

import numpy as np

from . import apps, bench, fileio, masking, recurrent, reference
from .core import (
    DivergedError,
    Hard,
    LogSumExp,
    PaddingPolicy,
    SemanticsConfig,
    SoftMax,
    StlError,
)
from .formula import parse as parse_formula
from .formula import validate_against

__all__ = ["main", "cmd_eval", "cmd_trace", "cmd_bench", "cmd_mine", "cmd_plan"]


_SMOOTH_MODES = {"softmax": SoftMax, "lse": LogSumExp}


def _semantics(args) -> SemanticsConfig:
    try:
        mode = Hard() if args.mode == "hard" else _SMOOTH_MODES[args.mode](args.temp)
        if args.padding == "last":
            padding = PaddingPolicy.last_value()
        elif args.padding.startswith("const:"):
            padding = PaddingPolicy.constant(float(args.padding.split(":", 1)[1]))
        else:
            raise ValueError(f"--padding must be 'last' or 'const:<v>', got {args.padding!r}")
    except ValueError as exc:
        raise fileio.ConfigError(str(exc)) from None
    return SemanticsConfig(mode=mode, padding=padding)


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _trace_for(engine: str, f, signals, cfg) -> np.ndarray:
    if engine == "masking":
        return masking.robustness_trace(f, signals, cfg)
    if engine == "recurrent":
        return recurrent.trace_recurrent(f, signals, cfg)
    return reference.trace_ref(f, signals, cfg)


def _load_case(args):
    f = parse_formula(args.formula)
    signals = fileio.read_signals_csv(args.csv)
    missing = validate_against(f, signals)
    if missing:
        raise StlError(
            f"formula references missing columns: {', '.join(missing)} "
            f"(csv has: {', '.join(signals.names())})")
    return f, signals


def cmd_eval(args) -> int:
    f, signals = _load_case(args)
    cfg = _semantics(args)
    trace = _trace_for(args.engine, f, signals, cfg)
    _emit({"value": float(trace[0]), "engine": args.engine, "mode": args.mode,
           "L": signals.length}, args.out)
    return 0


def cmd_trace(args) -> int:
    f, signals = _load_case(args)
    cfg = _semantics(args)
    trace = _trace_for(args.engine, f, signals, cfg)
    _emit([float(v) for v in trace], args.out)
    return 0


def _check_seed(seed, flag: str):
    if seed < 0:
        raise fileio.ConfigError(f"{flag} must be a nonnegative integer, got {seed}")


def cmd_bench(args) -> int:
    if args.reps < 1 or args.batch < 1:
        raise fileio.ConfigError("--reps and --batch must be >= 1")
    _check_seed(args.seed, "--seed")
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        sizes = ()
    if not sizes or min(sizes) < 1:
        raise fileio.ConfigError(f"--sizes must be a comma list of positive lengths, got {args.sizes!r}")
    report = bench.run_bench(sizes=sizes, reps=args.reps, batch=args.batch,
                             include_grad=args.grad, seed=args.seed)
    _emit(report, args.out)
    return 0


def _config_kinds(cls) -> dict:
    """Each field of the config dataclass ``cls`` with the kind that
    ``fileio.apply_config`` parses it as, read from its type."""
    kinds = {}
    for name, hint in typing.get_type_hints(cls).items():
        if hint == apps.Schedule:
            kinds[name] = "schedule"
        elif typing.get_origin(hint) is tuple:
            kinds[name] = tuple
        else:
            kinds[name] = hint
    return kinds


def _config_from(path, cls):
    overrides = {}
    if path:
        overrides = fileio.apply_config(fileio.load_config(path), _config_kinds(cls), str(path))
    try:
        return cls(**overrides)
    except ValueError as exc:
        raise fileio.ConfigError(f"{path}: {exc}") from None


def cmd_mine(args) -> int:
    if (args.data is None) == (args.generate is None):
        raise fileio.ConfigError("pass exactly one of --data or --generate")
    cfg = _config_from(args.config, apps.MiningConfig)
    if args.generate is not None:
        _check_seed(args.generate, "--generate")
        dataset = apps.synth_step_dataset(args.generate)
        source = {"generated_seed": args.generate}
    else:
        dataset = fileio.read_dataset_csv(args.data)
        source = {"path": str(args.data)}
    result = apps.mine_interval(dataset, cfg)
    if args.contour:
        try:
            na, nb = (int(p) for p in args.contour.lower().split("x"))
        except ValueError:
            na = nb = 0
        if min(na, nb) < 1:
            raise fileio.ConfigError(f"--contour expects NxM with positive N and M, got {args.contour!r}")
        grid_a = np.linspace(0.0, 1.0, na)
        grid_b = np.linspace(0.0, 1.0, nb)
        sem = SemanticsConfig(mode=LogSumExp(cfg.temp_anneal[2]))
        sharp = cfg.sharp_anneal[2]
        objective = lambda a, b: apps.mining_objective(a, b, dataset, cfg.gamma, sharp, sem)
        grid = apps.grid_eval(grid_a, grid_b, objective)
        path = args.contour_out or "contour.csv"
        with open(path, "w") as fh:
            fh.write("a,b,loss\n")
            for i, a in enumerate(grid_a):
                for j, b in enumerate(grid_b):
                    if np.isfinite(grid[i, j]):
                        fh.write(f"{float(a)!r},{float(b)!r},{float(grid[i, j])!r}\n")
        print(f"contour written to {path}", file=sys.stderr)
    _emit({"config": dataclasses.asdict(cfg), "dataset": source,
           "final": {"a": result["interval"][0], "b": result["interval"][1]},
           "history": result["loss_history"]}, args.out)
    return 0


def cmd_plan(args) -> int:
    _check_seed(args.seed, "--seed")
    cfg = _config_from(args.config, apps.PlannerConfig)
    result = apps.plan_trajectory(cfg, seed=args.seed)
    if args.states_csv:
        states = result["states"]
        with open(args.states_csv, "w") as fh:
            fh.write("t,x,y\n")
            for i, (x, y) in enumerate(states):
                fh.write(f"{float(i * cfg.dt)!r},{float(x)!r},{float(y)!r}\n")
        print(f"states written to {args.states_csv}", file=sys.stderr)
    a, b = result["interval"]
    _emit({
        "config": dataclasses.asdict(cfg),
        "seed": args.seed,
        "final": {"a": a, "b": b, "hard_robustness": result["final_robustness"]},
        "controls": [[float(u) for u in row] for row in result["controls"]],
        "states": [[float(v) for v in row] for row in result["states"]],
        "history": result["objective_history"],
    }, args.out)
    return 0


def _add_semantics_flags(p: argparse.ArgumentParser):
    p.add_argument("--mode", choices=("hard", "softmax", "lse"), default="hard",
                   help="reduction semantics (default: hard)")
    p.add_argument("--temp", type=float, default=1.0, help="temperature for smooth modes")
    p.add_argument("--padding", default="last", metavar="{last,const:<v>}",
                   help="value assumed past the signal end (default: last)")
    p.add_argument("--engine", choices=("masking", "recurrent", "reference"),
                   default="masking")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stlmask",
                                     description="Robustness evaluation and optimization "
                                                 "for signal temporal logic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="robustness of the whole signal (trace entry 0)")
    p_eval.add_argument("formula")
    p_eval.add_argument("csv")
    _add_semantics_flags(p_eval)
    p_eval.add_argument("--out")
    p_eval.set_defaults(fn=cmd_eval)

    p_trace = sub.add_parser("trace", help="full robustness trace as a JSON array")
    p_trace.add_argument("formula")
    p_trace.add_argument("csv")
    _add_semantics_flags(p_trace)
    p_trace.add_argument("--out")
    p_trace.set_defaults(fn=cmd_trace)

    p_bench = sub.add_parser("bench", help="time the masked vs recurrent engines")
    p_bench.add_argument("--sizes", default="32,64,128,256,512")
    p_bench.add_argument("--reps", type=int, default=11)
    p_bench.add_argument("--batch", type=int, default=8)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--grad", action="store_true",
                         help="also time gradient evaluation (log-sum-exp mode)")
    p_bench.add_argument("--out")
    p_bench.set_defaults(fn=cmd_bench)

    p_mine = sub.add_parser("mine", help="mine the widest satisfied window from data")
    p_mine.add_argument("--data", help="dataset CSV (columns are signals)")
    p_mine.add_argument("--generate", type=int, metavar="SEED",
                        help="generate the synthetic step dataset instead")
    p_mine.add_argument("--config", help="key=value config file")
    p_mine.add_argument("--contour", metavar="NxM",
                        help="also evaluate an NxM (a,b) loss grid")
    p_mine.add_argument("--contour-out", help="grid CSV path (default contour.csv)")
    p_mine.add_argument("--out")
    p_mine.set_defaults(fn=cmd_mine)

    p_plan = sub.add_parser("plan", help="optimize a trajectory and its time window")
    p_plan.add_argument("--config", help="key=value config file")
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--states-csv", help="write the state sequence for plotting")
    p_plan.add_argument("--out")
    p_plan.set_defaults(fn=cmd_plan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (StlError, OSError) as exc:
        # anything else is a bug in stlmask, not bad input: let it surface
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
