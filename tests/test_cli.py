import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import builds_no_var
from stlmask import apps, bench, cli, masking
from stlmask.cli import main
from stlmask.core import NamedSignals
from stlmask.fileio import (
    ConfigError,
    apply_config,
    parse_config_text,
    parse_schedule,
    read_dataset_csv,
    read_signals_csv,
    write_dataset_csv,
    write_signals_csv,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def run_cli(*args, capsys=None):
    return main(list(args))


class TestFileIO:
    def test_signals_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(70)
        sig = NamedSignals.from_arrays(
            {"x": rng.normal(0, 1, 17), "y": rng.uniform(-1e5, 1e5, 17)})
        path = tmp_path / "sig.csv"
        write_signals_csv(path, sig)
        back = read_signals_csv(path)
        for name in sig.names():
            np.testing.assert_array_equal(back[name].values, sig[name].values)

    def test_t_column_sets_dt(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,s\n0.0,1.0\n0.5,2.0\n1.0,3.0\n")
        sig = read_signals_csv(path)
        assert sig.dt == 0.5
        assert sig.names() == ["s"]

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s\n1.0\nnot_a_number\n")
        with pytest.raises(ConfigError):
            read_signals_csv(path)

    def test_ragged_csv(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x,y\n1.0,2.0\n3.0\n")
        with pytest.raises(ConfigError):
            read_signals_csv(path)

    def test_dataset_round_trip(self, tmp_path):
        rng = np.random.default_rng(71)
        data = rng.normal(0, 1, (5, 9))
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data)
        np.testing.assert_array_equal(read_dataset_csv(path), data)

    def test_config_parsing(self):
        cfg = parse_config_text("# comment\nlr = 0.01\nsteps = 10  # trailing\n")
        assert cfg == {"lr": "0.01", "steps": "10"}
        with pytest.raises(ConfigError):
            parse_config_text("oops")
        with pytest.raises(ConfigError):
            parse_config_text("a = 1\na = 2")

    @pytest.mark.parametrize("config", [apps.PlannerConfig, apps.MiningConfig], ids=["plan", "mine"])
    def test_every_config_field_round_trips(self, config):
        def text(value):
            if isinstance(value, tuple) and isinstance(value[0], str):  # a schedule
                return ":".join(map(str, value))
            if isinstance(value, tuple):
                return ",".join(repr(v) for v in value)
            return repr(value)
        fields = dataclasses.fields(config)
        raw = parse_config_text("\n".join(f"{f.name} = {text(f.default)}" for f in fields))
        got = apply_config(raw, cli._config_kinds(config))
        for f in fields:
            assert got[f.name] == f.default and type(got[f.name]) is type(f.default), f.name

    def test_schedule_parsing(self):
        assert parse_schedule("sigmoid:1:30") == ("sigmoid", 1.0, 30.0)
        assert parse_schedule("constant:5") == ("constant", 5.0, 5.0)
        with pytest.raises(ConfigError):
            parse_schedule("bogus:1:2")


class TestEvalTrace:
    def test_eval_example(self, capsys):
        assert run_cli("eval", "F[1,3] (s > 0)", str(DATA / "example1.csv")) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"value": 3.0, "engine": "masking", "mode": "hard", "L": 8}

    def test_eval_true_reports_top(self, capsys):
        assert run_cli("eval", "TRUE", str(DATA / "example1.csv")) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1e5

    def test_eval_missing_column(self, capsys):
        assert run_cli("eval", "q > 0", str(DATA / "example1.csv")) == 2
        assert "q" in capsys.readouterr().err

    def test_eval_malformed_formula(self):
        assert run_cli("eval", "F[3,1] (s > 0)", str(DATA / "example1.csv")) == 2

    def test_eval_missing_file(self):
        assert run_cli("eval", "s > 0", "no_such_file.csv") == 2

    @pytest.mark.parametrize("text", ["s\n1.0\nnot_a_number\n", "s,y\n1.0,2.0\n3.0\n", "s\n",
                                      "t,s\n0,1\n0,2\n"],
                             ids=["non-number", "ragged", "no-rows", "t-not-increasing"])
    def test_eval_bad_csv(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert run_cli("eval", "s > 0", str(path)) == 2

    def test_trace_example_both_paddings(self, capsys):
        assert run_cli("trace", "F[1,3] (s > 0)", str(DATA / "example1.csv")) == 0
        assert json.loads(capsys.readouterr().out) == [3, 4, 5, 6, 7, 7, 7, 7]
        assert run_cli("trace", "F[1,3] (s > 0)", str(DATA / "example1.csv"),
                       "--padding", "const:-1e5") == 0
        assert json.loads(capsys.readouterr().out) == [3, 4, 5, 6, 7, -1e5, -1e5, -1e5]

    def test_trace_single_row_untimed_always(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("s\n4.5\n")
        assert run_cli("trace", "G (s > 0)", str(path)) == 0
        assert json.loads(capsys.readouterr().out) == [4.5]

    def test_engines_agree_on_shipped_examples(self, capsys):
        for csv_path, formula in [
            (DATA / "example1.csv", "F[1,3] (s > 0)"),
            (DATA / "demo_xy.csv", "G[0,5] ((x > -2) & (y < 2))"),
            (DATA / "demo_xy.csv", "(x > -1) U (y > 0.5)"),
        ]:
            traces = []
            for engine in ("masking", "recurrent", "reference"):
                assert run_cli("trace", formula, str(csv_path), "--engine", engine) == 0
                traces.append(json.loads(capsys.readouterr().out))
            np.testing.assert_allclose(traces[0], traces[1], atol=1e-9)
            np.testing.assert_allclose(traces[0], traces[2], atol=1e-9)

    @pytest.mark.parametrize("engine", ["masking", "recurrent"])
    def test_eval_and_trace_build_no_var(self, engine, capsys):
        for command in ("eval", "trace"):
            for mode in ("hard", "lse"):
                with builds_no_var():
                    assert run_cli(command, "G[0,3] (x > -1) | ((x > -1) U (y > 0.5))",
                                   str(DATA / "demo_xy.csv"), "--engine", engine,
                                   "--mode", mode, "--temp", "5") == 0
        assert capsys.readouterr().out

    def test_out_file(self, tmp_path):
        out = tmp_path / "res.json"
        assert run_cli("eval", "s > 0", str(DATA / "example1.csv"), "--out", str(out)) == 0
        assert json.loads(out.read_text())["value"] == 0.0


class TestBenchCommand:
    def test_rejects_zero_reps(self):
        assert run_cli("bench", "--reps", "0") == 2

    def test_small_bench_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert run_cli("bench", "--sizes", "8,16", "--reps", "3", "--batch", "2",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["meta"]["sizes"] == [8, 16]
        assert {r["formula"] for r in report["results"]} == {
            "phi1", "phi2", "phi3", "phi4", "phi5", "phi6"}
        assert all(r["value_median_s"] > 0 for r in report["results"])
        assert len(report["relative"]) == 12

    def test_relative_rows_compare_the_engines_medians(self):
        report = bench.run_bench(sizes=(8, 12), reps=2, batch=1, include_grad=True)
        results = {(r["formula"], r["length"], r["engine"]): r for r in report["results"]}
        assert [(r["formula"], r["length"]) for r in report["relative"]] == [
            (name, length) for name in bench.bench_formulas() for length in (8, 12)]
        for row in report["relative"]:
            masked, rec = (results[(row["formula"], row["length"], engine)]
                           for engine in ("masking", "recurrent"))
            for kind in ("value", "grad"):
                want = masked[f"{kind}_median_s"] / rec[f"{kind}_median_s"] - 1.0
                assert row[f"{kind}_relative"] == want

    def test_gradient_bench_runs(self, tmp_path):
        out = tmp_path / "bench.json"
        assert run_cli("bench", "--sizes", "8", "--reps", "2", "--batch", "2",
                       "--grad", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert all("grad_median_s" in r for r in report["results"])


class TestMineCommand:
    def test_requires_exactly_one_source(self):
        assert run_cli("mine") == 2

    def test_generate_quick(self, tmp_path, capsys):
        cfgp = tmp_path / "m.cfg"
        cfgp.write_text("steps = 50\n")
        out = tmp_path / "mine.json"
        assert run_cli("mine", "--generate", "4", "--config", str(cfgp),
                       "--out", str(out)) == 0
        res = json.loads(out.read_text())
        assert 0.0 <= res["final"]["a"] < res["final"]["b"] <= 1.0
        assert len(res["history"]) == 50

    def test_data_file_and_contour(self, tmp_path, capsys):
        from stlmask.apps import synth_step_dataset
        data_path = tmp_path / "d.csv"
        write_dataset_csv(data_path, synth_step_dataset(0, n=8))
        cfgp = tmp_path / "m.cfg"
        cfgp.write_text("steps = 30\n")
        contour = tmp_path / "c.csv"
        assert run_cli("mine", "--data", str(data_path), "--config", str(cfgp),
                       "--contour", "12x12", "--contour-out", str(contour),
                       "--out", str(tmp_path / "r.json")) == 0
        rows = contour.read_text().strip().splitlines()
        assert rows[0] == "a,b,loss"
        assert len(rows) - 1 == 12 * 11 // 2

    def test_subnormal_initial_bound_reports_its_interval(self, tmp_path, capsys):
        # the final bounds come from the same stable sigmoid as each step
        cfgp = tmp_path / "m.cfg"
        cfgp.write_text("steps = 1\ninit_interval = 1e-310,0.5\n")
        assert run_cli("mine", "--generate", "0", "--config", str(cfgp)) == 0
        final = json.loads(capsys.readouterr().out)["final"]
        assert 0.0 < final["a"] < final["b"] < 1.0

    def test_bad_config_key(self, tmp_path):
        cfgp = tmp_path / "m.cfg"
        cfgp.write_text("bogus_key = 1\n")
        assert run_cli("mine", "--generate", "0", "--config", str(cfgp)) == 2

    def test_non_integer_step_count_rejected(self, tmp_path, capsys):
        cfgp = tmp_path / "m.cfg"
        cfgp.write_text("steps = 2.5\n")
        assert run_cli("mine", "--generate", "0", "--config", str(cfgp)) == 2
        assert "expected an integer" in capsys.readouterr().err


class TestPlanCommand:
    def test_quick_plan_with_states_csv(self, tmp_path):
        cfgp = tmp_path / "p.cfg"
        cfgp.write_text("steps = 30\nhorizon = 12\n")
        states = tmp_path / "states.csv"
        out = tmp_path / "plan.json"
        assert run_cli("plan", "--config", str(cfgp), "--seed", "3",
                       "--states-csv", str(states), "--out", str(out)) == 0
        res = json.loads(out.read_text())
        assert len(res["controls"]) == 12
        assert len(res["states"]) == 13
        lines = states.read_text().strip().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == 14
        # plain parseable numbers, no numpy scalar reprs
        assert all(len([float(c) for c in line.split(",")]) == 3 for line in lines[1:])

    def test_subnormal_initial_bound_reports_its_interval(self, tmp_path, capsys):
        cfgp = tmp_path / "p.cfg"
        cfgp.write_text("steps = 1\ninit_interval = 1e-310,0.5\n")
        assert run_cli("plan", "--config", str(cfgp)) == 0
        final = json.loads(capsys.readouterr().out)["final"]
        assert 0.0 < final["a"] < final["b"] < 1.0

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_nonpositive_steps_rejected(self, tmp_path, capsys, steps):
        cfgp = tmp_path / "p.cfg"
        cfgp.write_text(f"steps = {steps}\n")
        assert run_cli("plan", "--config", str(cfgp)) == 2
        assert "steps" in capsys.readouterr().err

    def test_missing_config_file(self):
        assert run_cli("plan", "--config", "no_such.cfg") == 2

    def test_determinism_across_runs(self, tmp_path, capsys):
        cfgp = tmp_path / "p.cfg"
        cfgp.write_text("steps = 25\nhorizon = 10\n")
        outputs = []
        for _ in range(2):
            assert run_cli("plan", "--config", str(cfgp), "--seed", "7") == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestErrorReporting:
    @pytest.mark.parametrize("command, text", [
        ("plan", "start = 1"),
        ("plan", "target_box = 1,2"),
        ("plan", "init_interval = 0.2,1.5"),
        ("plan", "dt = 0"),
        ("plan", "control_init_scale = -1"),
        ("plan", "temp_anneal = linear:0:5"),
        ("mine", "init_interval = 0,0.5"),
        ("mine", "eps = 0.7"),
        ("mine", "sharp_anneal = constant:-1"),
        ("plan", "lr = 0"),
        ("mine", "lr = nan"),
        # non-finite values, each rejected when the config is built
        ("plan", "gamma1 = nan"),
        ("plan", "gamma2 = inf"),
        ("plan", "gamma3 = nan"),
        ("plan", "gamma4 = inf"),
        ("plan", "target_box = 0.8,nan,0.8,1.2"),
        ("plan", "start = inf,0"),
        ("plan", "control_init_scale = inf"),
        ("plan", "temp_anneal = linear:1:inf"),
        ("mine", "gamma = nan"),
        ("mine", "sharp_anneal = sigmoid:inf:50"),
    ])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, command, text):
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(text + "\nsteps = 2\n")
        extra = ("--generate", "0") if command == "mine" else ()
        assert run_cli(command, "--config", str(cfgp), *extra) == 2
        assert text.split(" =")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("eval", "s > 0", str(DATA / "example1.csv"), "--mode", "lse", "--temp", "0"),
        ("trace", "F (s > 0)", str(DATA / "example1.csv"), "--mode", "lse", "--temp", "inf"),
        ("eval", "s > 0", str(DATA / "example1.csv"), "--padding", "const:abc"),
        ("bench", "--sizes", "8,x"),
        ("bench", "--batch", "0"),
        ("plan", "--seed", "-1"),
        ("mine", "--generate", "-1"),
        ("mine", "--generate", "0", "--contour=0x3"),
        ("mine", "--generate", "0", "--contour=-1x3"),
    ])
    def test_bad_flag_value_is_config_error(self, args):
        assert run_cli(*args) == 2

    @pytest.mark.parametrize("option", ["lse", "softmax"])
    def test_infinite_temperature_names_it(self, capsys, option):
        assert run_cli("trace", "F (s > 0)", str(DATA / "example1.csv"),
                       "--mode", option, "--temp", "inf") == 2
        assert "temperature" in capsys.readouterr().err

    def test_infinite_threshold_is_parse_error(self, capsys):
        assert run_cli("eval", "G[0,1] (s > 1e400)", str(DATA / "example1.csv")) == 2
        err = capsys.readouterr().err
        assert "threshold" in err and "column 13" in err

    @pytest.mark.parametrize("name, content", [
        ("bin.csv", b"\xff\xfes\n1\n"),
        ("t_step.csv", b"t,s\n-1e308,1\n1e308,2\n"),
        ("bin.cfg", b"steps = 3\n\xff\n"),
    ])
    def test_unreadable_input_file_is_config_error(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        if name.endswith(".cfg"):
            assert run_cli("plan", "--config", str(path)) == 2
        else:
            assert run_cli("eval", "s > 0", str(path)) == 2

    def test_internal_error_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("internal bug")
        monkeypatch.setattr(masking, "robustness_trace", broken)
        with pytest.raises(TypeError, match="internal bug"):
            run_cli("eval", "s > 0", str(DATA / "example1.csv"))


class TestEntryPoint:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stlmask.cli", "eval", "F[1,3] (s > 0)",
             str(DATA / "example1.csv")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == 3.0
