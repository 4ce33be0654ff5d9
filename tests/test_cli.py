import argparse
import json

import numpy as np
import pytest

from quip import bounds, simulators
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
        assert set(obj) == {"schema_version", "n", "d", "M", "q0", "q_upper"}

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
        monkeypatch.setattr(bounds, "code_size_bound", lambda d, q, M: M ** (d - q + 1))
        code, out, _ = run_cli(capsys, "design", "--n", "5", "--d", "6", "--M", "3")
        obj = json.loads(out)
        assert code == 0 and obj["q_star"] == 4
        assert obj["certificate"] == "exhaustion"
        # [q, status, phase, nodes] per solve; a [6,2,4]_3 code (PG(1, 3)
        # repeated) replaces the q0 = 3 solve and the q = 4 one
        assert obj["solves"] == [
            [4, "feasible", "code", 0],
            [5, "infeasible", "search", 9678],
        ]
        assert obj["nodes"] == 9678

    def test_negative_seed_named(self, capsys):
        # used to print only numpy's "expected non-negative integer"
        code, _, err = run_cli(capsys, "design", "--n", "10", "--d", "4", "--M", "6",
                               "--seed", "-1")
        assert code == 1 and "seed=-1" in err

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

    def test_malformed_responses_rejected(self, capsys, tmp_path):
        # "1,,2" used to fit as three responses against three design rows
        design = tmp_path / "d.json"
        run_cli(capsys, "design", "--n", "3", "--d", "3", "--M", "2",
                "--out", str(design))
        resp = tmp_path / "f.csv"
        for text, message in (
            ("1,,2\n3\n", "row 1 of responses {} has an empty field at position 2 of 3"),
            ("0.5\n1,2\n3\n", "row 2 of responses {} has 2 fields, expected 1"),
        ):
            resp.write_text(text)
            code, _, err = run_cli(capsys, "fit", "--design", str(design),
                                   "--responses", str(resp))
            assert code == 1 and message.format(resp) in err

    def test_non_numeric_field_named(self, capsys, tmp_path):
        # used to say only "invalid literal for int() with base 10: 'x'" or
        # "could not convert string to float: 'abc'"
        design, resp = tmp_path / "d.csv", tmp_path / "f.csv"
        for design_text, resp_text, message in (
            ("1,1\n1,x\n", "0.5\n1.5\n", f"design {design}: point 1 has a field "
             "that is not an integer at position 2 of 2: 'x'"),
            ("1,1\n2,2\n", "0.5\nabc\n", f"row 2 of responses {resp} has a field "
             "that is not a number at position 1 of 1: 'abc'"),
        ):
            design.write_text(design_text)
            resp.write_text(resp_text)
            code, _, err = run_cli(capsys, "fit", "--design", str(design),
                                   "--responses", str(resp))
            assert code == 1 and message in err

    def test_responses_of_the_wrong_length_named(self, capsys, tmp_path):
        # used to say only "responses shape (5,) does not match n=4"
        design, resp = tmp_path / "d.csv", tmp_path / "f.csv"
        design.write_text("1,1\n1,2\n2,1\n2,2\n")
        resp.write_text("0.5\n1.5\n-0.25\n2.0\n3.0\n")
        code, _, err = run_cli(capsys, "fit", "--design", str(design),
                               "--responses", str(resp))
        assert code == 1
        assert f"responses {resp} has 5 rows, but design {design} has 4 points" in err


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

    def test_path_follows_the_csv_rule(self, capsys):
        # "1,,2" used to evaluate the 2-step path [1, 2]
        code, _, err = run_cli(capsys, "simulate", "--problem", "snake",
                               "--path", "1,,2")
        assert code == 1 and "--path has an empty field at position 2 of 3" in err
        outs = [run_cli(capsys, "simulate", "--problem", "rover", "--path", path)
                for path in ("9,9,9", "9, 9,9,")]
        assert outs[0][0] == outs[1][0] == 0 and outs[0][1] == outs[1][1]
        assert [t["action"] for t in json.loads(outs[1][1])["trace"]] == [9, 9, 9, None]

    def test_path_line_break_named(self, capsys):
        # used to give the csv module's bare "new-line character seen in
        # unquoted field - ..."
        code, _, err = run_cli(capsys, "simulate", "--problem", "snake",
                               "--path", "1,2\n3")
        assert code == 1
        assert "error: --path is not comma-separated text: it has a line break" in err
        assert "universal-newline" not in err and "unquoted" not in err
        code, _, err = run_cli(capsys, "simulate", "--problem", "snake",
                               "--path", "1,x")
        assert code == 1
        assert "--path has a field that is not an integer at position 2 of 2: 'x'" in err

    def test_config_file(self, capsys, tmp_path):
        # a bad config used to be accepted (schema_version 99) or to fail
        # with a bare "'width'" or "'list' object has no attribute 'get'"
        world = {"width": 4, "height": 4, "start": [1, 1], "goal": [4, 1]}
        path = tmp_path / "w.json"
        argv = ["simulate", "--problem", "maze", "--config", str(path), "--path", "4,4,4"]
        path.write_text(json.dumps(world))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["value"] == 0.0
        for config, message in (
            (dict(world, schema_version=99), "schema_version 99 is not supported"),
            ([4, 4], "expected a JSON object"),
            ({k: v for k, v in world.items() if k != "width"},
             "grid world config missing field 'width'"),
        ):
            path.write_text(json.dumps(config))
            code, _, err = run_cli(capsys, *argv)
            assert code == 1 and message in err


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

    def test_negative_seed_named(self, capsys):
        # the initial design's solve used to fail with numpy's bare message
        code, _, err = run_cli(capsys, "sequential", "--simulator", "snake", "--acq", "ucb",
                               "--n-seq", "1", "--seed", "-1")
        assert code == 1 and "seed=-1" in err

    def test_csv_simulator_needs_a_table(self, capsys):
        code, _, err = run_cli(capsys, "sequential", "--simulator", "csv", "--acq", "ucb")
        assert code == 1 and "--table is required for the csv simulator" in err

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

    def test_csv_non_finite_response_named(self, capsys, tmp_path):
        # "nan" parsed as a float: the run printed "best_value": NaN, which
        # is not JSON, and exited 0
        table = tmp_path / "table.csv"
        for bad in ("nan", "inf", "-inf"):
            table.write_text(f"1,1,0.5\n1,2,{bad}\n2,1,2.0\n2,2,1.0\n")
            code, out, err = run_cli(
                capsys, "sequential", "--simulator", "csv", "--table", str(table),
                "--acq", "ucb", "--n-init", "2", "--n-seq", "1",
            )
            assert code == 1 and out == ""
            assert (f"row 2 of lookup table {table} has the non-finite response "
                    f"{float(bad)!r}") in err

    def test_csv_non_numeric_field_named(self, capsys, tmp_path):
        # used to say only "could not convert string to float: 'abc'" or
        # "invalid literal for int() with base 10: 'y'"
        table = tmp_path / "table.csv"
        for text, message in (
            ("1,1,0.5\n1,2,abc\n", "row 2 of lookup table {} has a field that is "
             "not a number at position 3 of 3: 'abc'"),
            ("1,1,0.5\n\ny,2,1.0\n", "row 3 of lookup table {} has a field that is "
             "not an integer at position 1 of 3: 'y'"),
        ):
            table.write_text(text)
            code, _, err = run_cli(
                capsys, "sequential", "--simulator", "csv", "--table", str(table),
                "--acq", "ucb", "--n-init", "2", "--n-seq", "1",
            )
            assert code == 1 and message.format(table) in err

    def test_csv_trailing_comma(self, capsys, tmp_path):
        # "1,1,5.0," used to fail on int("5.0"); a design CSV accepts it
        table = tmp_path / "table.csv"
        table.write_text("1,1,5.0,\n1,2,1.0\n2,1,2.0\n2,2,3.0\n")
        code, out, _ = run_cli(
            capsys, "sequential", "--simulator", "csv", "--table", str(table),
            "--acq", "ucb", "--n-init", "4", "--n-seq", "1",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["best_point"] == [1, 1] and obj["best_value"] == 5.0

    def test_csv_table_needs_a_level_column(self, capsys, tmp_path):
        # one field per row used to give a d = 0 lattice
        table = tmp_path / "table.csv"
        table.write_text("5.0\n6.0\n")
        code, _, err = run_cli(
            capsys, "sequential", "--simulator", "csv", "--table", str(table),
            "--acq", "ucb", "--n-init", "2", "--n-seq", "1",
        )
        assert code == 1
        assert f"lookup table {table} needs rows of levels followed by a response" in err

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

    @pytest.mark.parametrize("simulator", ["snake", "maze", "rover"])
    def test_problem_rejects_another_M(self, capsys, simulator):
        # --M used to be ignored: snake at --M 3 ran on its five actions
        argv = ["sequential", "--simulator", simulator, "--acq", "ucb",
                "--n-init", "3", "--n-seq", "1", "--d", "3"]
        M = simulators.PROBLEMS[simulator].M
        code, _, err = run_cli(capsys, *argv, "--M", str(M - 1))
        assert code == 1
        assert f"--M {M - 1} differs from M={M}, which the {simulator} simulator fixes" in err
        code, _, _ = run_cli(capsys, *argv, "--M", str(M))
        assert code == 0

    def test_csv_rejects_another_d(self, capsys, tmp_path):
        # --d used to be ignored: the table's columns fix d
        table = tmp_path / "table.csv"
        table.write_text("1,1,0.5\n1,2,1.0\n2,1,2.0\n2,2,3.0\n")
        argv = ["sequential", "--simulator", "csv", "--table", str(table),
                "--acq", "ucb", "--n-init", "2", "--n-seq", "1"]
        code, _, err = run_cli(capsys, *argv, "--d", "3")
        assert code == 1
        assert f"--d 3 differs from d=2, the level columns of lookup table {table}" in err
        code, _, _ = run_cli(capsys, *argv, "--d", "2")
        assert code == 0

    def test_zero_d_is_an_error(self, capsys):
        # --d 0 used to run the snake's native d=12
        code, _, err = run_cli(capsys, "sequential", "--simulator", "snake",
                               "--acq", "ucb", "--n-seq", "1", "--d", "0")
        assert code == 1 and "d=0 must be an int >= 1" in err


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
