import argparse
import json

import numpy as np
import pytest

from quip import maximin
from quip.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBound:
    def test_reports_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "4", "--d", "3", "--M", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["schema_version"] == 1
        assert obj["q0"] == 1
        # A_2(3, 3) <= 2 < 4 rows, but (111, 122, 212, 221) is at distance 2
        assert obj["q_upper"] == 2
        assert set(obj) == {"schema_version", "n", "d", "M", "q0", "gilbert_q", "q_upper"}

    def test_upper_zero_past_the_lattice(self, capsys):
        # more rows than {1, 2}^2 holds: no distance q >= 1 admits them
        _, out, _ = run_cli(capsys, "bound", "--n", "5", "--d", "2", "--M", "2")
        assert json.loads(out)["q_upper"] == 0

    def test_usage_error_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--n", "4")
        assert code == 1
        assert "error" in err


class TestDesign:
    def test_trivial_design(self, capsys, tmp_path):
        out_file = tmp_path / "d.json"
        code, out, _ = run_cli(
            capsys, "design", "--n", "2", "--d", "3", "--M", "2",
            "--out", str(out_file),
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["q_star"] == 3 and obj["certified"]
        assert obj["certificate"] == "bound"  # q* = d
        saved = json.loads(out_file.read_text())
        assert saved["n"] == 2

    def test_certificate_by_exhaustion(self, capsys, monkeypatch):
        # under the Singleton bound alone, q = 5 is decided by exhaustion
        monkeypatch.setattr(maximin, "code_size_bound", lambda d, q, M: M ** (d - q + 1))
        code, out, _ = run_cli(capsys, "design", "--n", "5", "--d", "6", "--M", "3")
        obj = json.loads(out)
        assert code == 0 and obj["q_star"] == 4
        assert obj["certificate"] == "exhaustion"
        # [q, status, phase, nodes] per feasibility solve
        assert obj["solves"] == [
            [3, "feasible", "greedy", 0],
            [4, "feasible", "repair", 0],
            [5, "infeasible", "search", 9678],
        ]
        assert obj["nodes"] == 9678

    def test_zero_time_limit_is_an_error(self, capsys):
        code, _, err = run_cli(
            capsys, "design", "--n", "5", "--d", "4", "--M", "3",
            "--time-limit", "0",
        )
        assert code == 1 and "time limit" in err

    def test_seeded_reproducibility(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "design", "--n", "5", "--d", "4", "--M", "3",
                "--seed", "7",
            )
            outs.append(json.loads(out)["design"])
        assert outs[0] == outs[1]


class TestFitSuggest:
    @pytest.fixture()
    def model_file(self, capsys, tmp_path):
        design = tmp_path / "d.json"
        resp = tmp_path / "f.csv"
        run_cli(capsys, "design", "--n", "6", "--d", "4", "--M", "3",
                "--out", str(design))
        rng = np.random.default_rng(0)
        resp.write_text("".join(f"{v}\n" for v in rng.normal(size=6)))
        model = tmp_path / "m.json"
        code, out, _ = run_cli(
            capsys, "fit", "--design", str(design), "--responses", str(resp),
            "--out", str(model),
        )
        assert code == 0
        return model

    def test_fit_output(self, model_file):
        obj = json.loads(model_file.read_text())
        assert len(obj["theta"]) == 4

    def test_suggest(self, capsys, model_file):
        code, out, _ = run_cli(
            capsys, "suggest", "--model", str(model_file), "--acq", "ucb",
            "--gap", "0.0",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "optimal"
        assert len(obj["point"]) == 4

    def test_suggest_matches_oracle(self, capsys, model_file):
        _, out1, _ = run_cli(
            capsys, "suggest", "--model", str(model_file), "--acq", "alm",
            "--gap", "0.0",
        )
        _, out2, _ = run_cli(
            capsys, "oracle", "acquisition", "--model", str(model_file),
            "--acq", "alm",
        )
        assert json.loads(out1)["value"] == pytest.approx(
            json.loads(out2)["value"], abs=1e-9
        )

    def test_suggest_zero_time_limit_is_an_error(self, capsys, model_file):
        code, _, err = run_cli(
            capsys, "suggest", "--model", str(model_file), "--acq", "ucb",
            "--time-limit", "0",
        )
        assert code == 1 and "time limit" in err

    def test_suggest_nan_lambda_is_an_error(self, capsys, model_file):
        code, _, err = run_cli(
            capsys, "suggest", "--model", str(model_file), "--acq", "ucb",
            "--lambda", "nan",
        )
        assert code == 1 and "lambda" in err

    def test_nan_model_parameter_is_an_error(self, capsys, model_file, tmp_path):
        obj = json.loads(model_file.read_text())
        obj["tau2"] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(obj))  # json writes the token NaN
        code, _, err = run_cli(capsys, "suggest", "--model", str(bad), "--acq", "alm")
        assert code == 1 and "tau2" in err

    def test_malformed_model_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "suggest", "--model", str(bad),
                               "--acq", "alm")
        assert code == 1 and "error" in err


class TestSimulate:
    def test_snake(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--problem", "snake",
            "--path", "1,2,1,2,1,2,1,2,1,2,1,2",
        )
        assert code == 0
        assert json.loads(out)["value"] == -132.0

    def test_rover(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--problem", "rover",
            "--path", "9,9,9,9,9,9,9,9",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == pytest.approx(
            50 * np.hypot(0.7, 0.7) - 5, abs=1e-9
        )

    def test_bad_path_levels(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--problem", "snake", "--path", "1,9,1",
        )
        assert code == 1


class TestSequentialCmd:
    def test_csv_simulator(self, capsys, tmp_path):
        # exhaustive lookup table on {1,2}^3
        import itertools

        table = tmp_path / "table.csv"
        lines = []
        for lv in itertools.product((1, 2), repeat=3):
            lines.append(",".join(map(str, lv)) + f",{sum(lv) + 0.5 * lv[0]}\n")
        table.write_text("".join(lines))
        out_file = tmp_path / "campaign.json"
        code, out, _ = run_cli(
            capsys, "sequential", "--simulator", "csv", "--table", str(table),
            "--acq", "ucb", "--n-init", "2", "--n-seq", "3", "--seed", "1",
            "--gap", "0.0", "--out", str(out_file),
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["n_total"] == 5
        saved = json.loads(out_file.read_text())
        assert len(saved["history"]) == 3
        assert obj["nodes"] == sum(h["nodes"] for h in saved["history"])

    def test_csv_simulator_infers_m(self, capsys, tmp_path):
        # exhaustive table on {1,2,3}^3, best at (3,3,3): without --M the
        # campaign must search all three levels, not {1,2}^3
        import itertools

        table = tmp_path / "table.csv"
        table.write_text("".join(
            ",".join(map(str, lv)) + f",{sum(lv)}\n"
            for lv in itertools.product((1, 2, 3), repeat=3)
        ))
        argv = ["sequential", "--simulator", "csv", "--table", str(table),
                "--acq", "ucb", "--n-init", "3", "--n-seq", "6", "--seed", "1",
                "--gap", "0.0"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        obj = json.loads(out)
        assert max(obj["best_point"]) == 3
        code, _, err = run_cli(capsys, *argv, "--M", "2")
        assert code == 1 and "below level 3" in err

    def test_csv_missing_point_named(self, capsys, tmp_path):
        # {1,2}^2 without (2,2): the campaign reaches the missing point
        table = tmp_path / "table.csv"
        table.write_text("1,1,0.5\n1,2,1.0\n2,1,2.0\n")
        code, _, err = run_cli(
            capsys, "sequential", "--simulator", "csv", "--table", str(table),
            "--acq", "ucb", "--n-init", "2", "--n-seq", "2", "--seed", "1",
            "--gap", "0.0",
        )
        assert code == 1
        assert "point [2, 2] is not in lookup table" in err and str(table) in err

    def test_csv_ragged_rows_rejected(self, capsys, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("1,1,0.5\n\n1,2,3,1.0\n")
        code, _, err = run_cli(
            capsys, "sequential", "--simulator", "csv", "--table", str(table),
            "--acq", "ucb", "--n-init", "2", "--n-seq", "1",
        )
        assert code == 1
        assert f"row 3 of lookup table {table} has 4 fields, expected 3" in err

    def test_csv_conflicting_repeat_rejected(self, capsys, tmp_path):
        # an identical repeat is harmless; a different response is not
        table = tmp_path / "table.csv"
        table.write_text("1,1,5.0\n1,2,1.0\n1,2,1.0\n2,1,2.0\n1,1,7.0\n")
        code, _, err = run_cli(
            capsys, "sequential", "--simulator", "csv", "--table", str(table),
            "--acq", "ucb", "--n-init", "2", "--n-seq", "1",
        )
        assert code == 1
        assert (f"rows 1 and 5 of lookup table {table} give point [1, 1] "
                "different responses") in err

    def test_init_design_lattice_must_match(self, capsys, tmp_path):
        # a d=4 design for the snake at --d 6 (and its native d=12), and an
        # M=3 design for the M=5 snake
        d4 = tmp_path / "d4.json"
        run_cli(capsys, "design", "--n", "4", "--d", "4", "--M", "5",
                "--out", str(d4))
        m3 = tmp_path / "m3.json"
        run_cli(capsys, "design", "--n", "4", "--d", "6", "--M", "3",
                "--out", str(m3))
        argv = ["sequential", "--simulator", "snake", "--acq", "ucb",
                "--n-seq", "1"]
        for extra in (["--d", "6"], []):
            code, _, err = run_cli(capsys, *argv, *extra, "--init-design", str(d4))
            assert code == 1
            assert f"initial design {d4} has d=4" in err
        code, _, err = run_cli(capsys, *argv, "--d", "6", "--init-design", str(m3))
        assert code == 1 and "has M=3, expected M=5" in err


class TestBenchCmd:
    def test_tiny_plan(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "problem": "snake", "methods": ["random"], "replications": 2,
            "n_init": 4, "n_seq": 2, "d": 5, "seed": 0,
        }))
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(
            capsys, "bench", "--plan", str(plan), "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "rows.csv").exists()
        assert (out_dir / "summary.json").exists()


class TestOracleCmd:
    def test_maximin(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "maximin", "--n", "3", "--d", "3", "--M", "2",
        )
        assert code == 0
        assert json.loads(out)["q_star"] == 2


def _flags(parser, prefix=()):
    """{subcommand: {option strings: (dest, type, default, required, choices)}}"""
    out = {}
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            for name, sp in a.choices.items():
                out.update(_flags(sp, prefix + (name,)))
        elif a.option_strings and not isinstance(a, argparse._HelpAction) and prefix:
            out.setdefault(" ".join(prefix), {})[tuple(a.option_strings)] = (
                a.dest, a.type and a.type.__name__, a.default, a.required,
                a.choices and tuple(a.choices),
            )
    return out


_LATTICE = {("--n",): ("n", "int", None, True, None),
            ("--d",): ("d", "int", None, True, None),
            ("--M",): ("M", "int", None, True, None)}
_ACQ = {("--acq",): ("acq", None, None, True, ("alm", "ucb")),
        ("--lambda",): ("lam", "float", 2.96, False, None)}
_TIME_LIMIT = {("--time-limit",): ("time_limit", "float", None, False, None)}
_GAP = {("--gap",): ("gap", "float", 0.1, False, None)}
_SEED = {("--seed",): ("seed", "int", 0, False, None)}
_OUT = {("--out",): ("out", None, None, False, None)}


def test_flag_inventory():
    # every subcommand's flags, as the parser defined them one by one
    assert _flags(build_parser()) == {
        "bound": _LATTICE,
        "design": {**_LATTICE, **_TIME_LIMIT, **_SEED, **_OUT},
        "fit": {("--design",): ("design", None, None, True, None),
                ("--responses",): ("responses", None, None, True, None),
                ("--M",): ("M", "int", None, False, None), **_SEED, **_OUT},
        "suggest": {**_ACQ, **_GAP, **_TIME_LIMIT,
                    ("--model",): ("model", None, None, True, None)},
        "sequential": {
            **_ACQ, **_GAP, **_TIME_LIMIT, **_SEED, **_OUT,
            ("--simulator",): ("simulator", None, None, True,
                               ("maze", "snake", "rover", "csv")),
            ("--n-init",): ("n_init", "int", 20, False, None),
            ("--n-seq",): ("n_seq", "int", 30, False, None),
            ("--d",): ("d", "int", None, False, None),
            ("--M",): ("M", "int", None, False, None),
            ("--table",): ("table", None, None, False, None),
            ("--init-design",): ("init_design", None, None, False, None),
        },
        "simulate": {("--problem",): ("problem", None, None, True,
                                      ("maze", "snake", "rover")),
                     ("--config",): ("config", None, None, False, None),
                     ("--path",): ("path", None, None, True, None)},
        "bench": {("--plan",): ("plan", None, None, True, None),
                  ("--out",): ("out", None, None, True, None)},
        "oracle maximin": _LATTICE,
        "oracle acquisition": {**_ACQ,
                               ("--model",): ("model", None, None, True, None)},
    }
