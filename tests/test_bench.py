import csv
import json

import numpy as np
import pytest

from quip import bench, simulators
from quip.bench import (
    BenchPlan,
    BenchReport,
    aggregate,
    initial_design,
    load_plan,
    plan_from_dict,
    problem_objective,
    run_bench,
    write_report,
    write_rows_csv,
)
from quip.encoding import min_pairwise_distance


class TestBenchPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            BenchPlan("snake", replications=0)
        with pytest.raises(ValueError):
            BenchPlan("snake", methods=())
        with pytest.raises(ValueError):
            BenchPlan("snake", methods=("gurobi",))
        with pytest.raises(ValueError):
            BenchPlan("snake", mode="plot")
        # previously d=0 ran the native d=12, n_seq=-2 ran no iterations and
        # candidate_c=0 failed only inside the candidate arm
        for bad in (dict(d=0), dict(d=-1), dict(n_seq=-2), dict(candidate_c=0),
                    dict(n_init=0)):
            with pytest.raises(ValueError, match=next(iter(bad))):
                BenchPlan("snake", methods=("random",), **bad)
        assert BenchPlan("snake", n_seq=0).n_seq == 0
        # n_init=1 failed only inside the first arm that fits a model
        for methods in (("random", "quip"), ("candidate",)):
            with pytest.raises(ValueError, match="n_init"):
                BenchPlan("snake", methods=methods, n_init=1)
        assert BenchPlan("snake", methods=("random",), n_init=1).n_init == 1
        # an active-mode arm ending with one point failed only in its final
        # RRMSE fit
        with pytest.raises(ValueError, match="active"):
            BenchPlan("snake", methods=("random",), n_init=1, n_seq=0, mode="active")
        assert BenchPlan("snake", methods=("random",), n_init=1, n_seq=1, mode="active").n_seq == 1

    def test_unknown_problem_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown problem 'chess'"):
            BenchPlan("chess")
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"problem": "chess"}))
        with pytest.raises(ValueError, match="unknown problem"):
            load_plan(path)

    def test_unknown_acquisition_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown acquisition kind 'ei'"):
            BenchPlan("snake", acq="ei")
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"problem": "snake", "acq": "ei"}))
        with pytest.raises(ValueError, match="unknown acquisition kind"):
            load_plan(path)

    def test_from_dict(self):
        p = plan_from_dict(
            {"problem": "maze", "methods": ["random"], "replications": 2}
        )
        assert p.methods == ("random",) and p.replications == 2


class TestProblemObjective:
    def test_known_shapes(self):
        for problem, (dd, mm) in {
            "maze": (12, 5), "snake": (12, 5), "rover": (8, 9)
        }.items():
            d, M, obj = problem_objective(problem)
            assert (d, M) == (dd, mm)
        with pytest.raises(ValueError):
            problem_objective("chess")

    def test_simulator_looked_up_at_call_time(self, monkeypatch):
        # a wrapper installed on the module attribute sees every evaluation
        calls = []
        real = simulators.snake_reward

        def counted(world, x):
            calls.append(x)
            return real(world, x)

        monkeypatch.setattr(simulators, "snake_reward", counted)
        d, M, obj = problem_objective("snake")
        from quip.encoding import Point

        p = Point((1,) * d, M)
        assert obj(p) == real(simulators.default_snake(), p).value
        assert calls == [p]

    def test_costs_negated(self):
        from quip.encoding import Point
        from quip.simulators import default_maze, maze_cost

        d, M, obj = problem_objective("maze")
        p = Point((5,) * d, M)
        assert obj(p) == -maze_cost(default_maze(), p).value


class TestInitialDesign:
    def test_respects_q0(self):
        from quip.bounds import q0

        D = initial_design(8, 8, 5, seed=0)
        assert min_pairwise_distance(D) >= q0(8, 8, 5)

    def test_seed_variation(self):
        a = initial_design(8, 8, 5, seed=0)
        b = initial_design(8, 8, 5, seed=1)
        assert a != b
        assert a == initial_design(8, 8, 5, seed=0)


@pytest.fixture(scope="module")
def small_report():
    plan = BenchPlan(
        "snake", methods=("quip", "random", "candidate"), replications=2,
        n_init=5, n_seq=2, d=6, candidate_c=100, seed=3, time_limit=5.0,
    )
    return run_bench(plan)


class TestRunBench:
    def test_row_counts(self, small_report):
        # (n_seq + 1) rows per (method, replication)
        assert len(small_report.rows) == 3 * 2 * 3

    def test_best_so_far_monotone(self, small_report):
        for method in ("quip", "random", "candidate"):
            for rep in (0, 1):
                vals = [
                    r["best_so_far"] for r in small_report.rows
                    if r["method"] == method and r["replication"] == rep
                ]
                assert vals == sorted(vals) or all(
                    b >= a for a, b in zip(vals, vals[1:])
                )

    def test_shared_initial_design(self, small_report):
        # iteration-0 best is identical across methods within a replication
        for rep in (0, 1):
            row0 = {
                r["method"]: r["best_so_far"] for r in small_report.rows
                if r["replication"] == rep and r["iteration"] == 0
            }
            assert len(set(row0.values())) == 1

    def test_aggregate_fields(self, small_report):
        for a in small_report.summary:
            assert a["p2_5"] <= a["median"] <= a["p97_5"]
            assert a["replications"] == 2

    def test_seed_isolation(self):
        # adding replications does not change earlier replications
        base = BenchPlan("snake", methods=("random",), replications=1,
                         n_init=4, n_seq=2, d=5, seed=11)
        more = BenchPlan("snake", methods=("random",), replications=2,
                         n_init=4, n_seq=2, d=5, seed=11)
        r1 = run_bench(base)
        r2 = run_bench(more)
        rows1 = [r for r in r1.rows if r["replication"] == 0]
        rows2 = [r for r in r2.rows if r["replication"] == 0]
        for a, b in zip(rows1, rows2):
            assert a["best_so_far"] == b["best_so_far"]

    def test_random_only_zero_seq(self):
        plan = BenchPlan("snake", methods=("random",), replications=2,
                         n_init=4, n_seq=0, d=5, seed=2)
        rep = run_bench(plan)
        assert all(r["iteration"] == 0 for r in rep.rows)

    def test_write_report(self, small_report, tmp_path):
        out = tmp_path / "results"
        write_report(small_report, out)
        with open(out / "rows.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(small_report.rows)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["plan"]["problem"] == "snake"

    def test_no_rows_to_write(self, tmp_path):
        with pytest.raises(ValueError, match="no rows to write"):
            write_rows_csv([], tmp_path / "rows.csv")
        assert not (tmp_path / "rows.csv").exists()

    def test_summary_plan_round_trips(self, tmp_path):
        # every field is recorded: a plan without a time limit must not
        # come back with the 5 s default
        plan = BenchPlan("rover", replications=3, time_limit=None, test_size=7,
                         test_seed=8, methods=("random",))
        write_report(BenchReport(plan, ({"method": "random"},)), tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert plan_from_dict(summary["plan"]) == plan

    def test_load_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"problem": "maze", "replications": 1}))
        assert load_plan(path).problem == "maze"


class TestActiveMode:
    def test_undefined_rrmse_fails_before_any_arm(self, monkeypatch):
        # a test set of 0 or 1 points, or of equal responses, used to fail
        # only inside rrmse, after an arm had run
        plan = dict(problem="snake", methods=("random", "quip"), replications=1,
                    n_init=5, n_seq=2, d=5, acq="alm", mode="active")
        for size in (0, 1):
            with pytest.raises(ValueError, match="test_size"):
                BenchPlan(**plan, test_size=size)
        assert BenchPlan(**{**plan, "mode": "opt"}, test_size=1).test_size == 1

        def no_arm(*args):
            raise AssertionError("an arm ran")

        monkeypatch.setattr(bench, "_run_arm", no_arm)
        flat = lambda world, x: simulators.SimResult(1.0, ())
        monkeypatch.setitem(simulators.PROBLEMS, "snake",
                            simulators.PROBLEMS["snake"]._replace(simulate=flat))
        with pytest.raises(ValueError, match="all equal"):
            run_bench(BenchPlan(**plan, test_size=2))

    def test_rrmse_recorded(self):
        plan = BenchPlan("snake", methods=("quip",), replications=1,
                         n_init=5, n_seq=1, d=5, acq="alm", mode="active",
                         test_size=50, seed=4)
        rep = run_bench(plan)
        final = [r for r in rep.rows if r["iteration"] == 1]
        assert final and final[0]["rrmse"] is not None
        assert final[0]["rrmse"] >= 0.0
