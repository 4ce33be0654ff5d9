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
from quip.sequential import CampaignError


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

    @pytest.mark.parametrize("field, value", [
        ("n_seq", 2.5), ("replications", 2.0), ("n_init", 5.0), ("candidate_c", 10.5),
        ("seed", -1), ("seed", 1.0), ("replications", True), ("d", 5.0),
    ])
    def test_plan_numbers_checked_when_built(self, field, value, tmp_path):
        # JSON lets 2.0 and true through: they failed only inside run_bench,
        # with a bare TypeError, and seed=-1 with numpy's bare message
        with pytest.raises(ValueError, match=f"{field}="):
            BenchPlan("snake", **{field: value})
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"problem": "snake", field: value}))
        with pytest.raises(ValueError, match=f"{field}="):
            load_plan(path)

    def test_test_set_numbers_checked_in_active_mode(self):
        with pytest.raises(ValueError, match="test_seed=-1"):
            BenchPlan("snake", mode="active", test_seed=-1)
        with pytest.raises(ValueError, match="test_size=60.0"):
            BenchPlan("snake", mode="active", test_size=60.0)
        # unused outside active mode
        assert BenchPlan("snake", test_seed=-1).test_seed == -1

    def test_repeated_methods_rejected(self):
        # ("random", "random") ran the arm twice and the summary counted
        # replications: 4 for a 2-replication plan
        with pytest.raises(ValueError, match="repeat"):
            BenchPlan("snake", methods=("random", "random"), replications=2)
        with pytest.raises(ValueError, match="repeat"):
            plan_from_dict({"problem": "snake", "methods": ["quip", "candidate", "quip"]})

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

    def test_seed_variation_when_n_at_most_M(self):
        # n <= M: each seed's random start is repaired to distance d
        designs = [initial_design(5, 6, 5, seed=s) for s in range(5)]
        assert len({D.as_array().tobytes() for D in designs}) >= 2
        assert all(min_pairwise_distance(D) == 6 for D in designs)


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


# An active-mode three-arm plan, its rows and summary pinned. Each
# replication's n_init = 5 <= M = 5 initial design comes from its own seeded
# repair (iteration-0 best 18.0 and 5.0). The fourth sequential point is the
# first that moves a best-so-far: 47.0 from quip's acquisition in
# replication 1, against 81.0 from the candidate set, so the pins see an
# acquisition choice. Gap-stopped (10%) choices may move inside their
# certified gap when the branch and bound's search order changes, and the
# final RRMSE pins them. Per (method, replication): best-so-far per
# iteration, then the final RRMSE, whose last bits vary with the BLAS
# thread count.
PINNED_PLAN = BenchPlan("snake", replications=2, n_init=5, n_seq=4, d=5,
                        mode="active", test_size=60, time_limit=None)
PINNED_SEEDS = (2968811710, 3964924996)
PINNED_ARMS = {
    ("candidate", 0): ([18.0, 18.0, 18.0, 18.0, 18.0], 1.0090995563334983),
    ("candidate", 1): ([5.0, 5.0, 5.0, 5.0, 81.0], 1.0962219206658703),
    ("quip", 0): ([18.0, 18.0, 18.0, 18.0, 18.0], 1.0090995563334983),
    ("quip", 1): ([5.0, 5.0, 5.0, 5.0, 47.0], 1.0629846939217835),
    ("random", 0): ([18.0, 18.0, 81.0, 81.0, 81.0], 0.7022308984046114),
    ("random", 1): ([5.0, 5.0, 5.0, 5.0, 47.0], 0.6061278617671794),
}
PINNED_SUMMARY = {  # (method, iteration): (median, p2_5, p97_5)
    ("candidate", 0): (11.5, 5.325, 17.675),
    ("candidate", 1): (11.5, 5.325, 17.675),
    ("candidate", 2): (11.5, 5.325, 17.675),
    ("candidate", 3): (11.5, 5.325, 17.675),
    ("candidate", 4): (49.5, 19.575, 79.425),
    ("quip", 0): (11.5, 5.325, 17.675),
    ("quip", 1): (11.5, 5.325, 17.675),
    ("quip", 2): (11.5, 5.325, 17.675),
    ("quip", 3): (11.5, 5.325, 17.675),
    ("quip", 4): (32.5, 18.725, 46.275),
    ("random", 0): (11.5, 5.325, 17.675),
    ("random", 1): (11.5, 5.325, 17.675),
    ("random", 2): (43.0, 6.9, 79.1),
    ("random", 3): (43.0, 6.9, 79.1),
    ("random", 4): (64.0, 47.85, 80.15),
}


class TestOneLoop:
    def test_pinned_active_plan(self, tmp_path):
        report = run_bench(PINNED_PLAN)
        expected = []
        for (method, rep), (best, final) in PINNED_ARMS.items():
            for it, b in enumerate(best):
                expected.append({
                    "method": method, "replication": rep, "seed": PINNED_SEEDS[rep],
                    "iteration": it, "best_so_far": b,
                    "rrmse": pytest.approx(final, rel=1e-9) if it == len(best) - 1 else None,
                    "candidate_c": 2000 if method == "candidate" else None,
                })
        untimed = [{k: v for k, v in r.items() if k not in ("wall_time", "total_time")}
                   for r in report.rows]
        assert untimed == expected
        write_report(report, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert plan_from_dict(summary["plan"]) == PINNED_PLAN
        assert summary["aggregate"] == [
            {"method": m, "iteration": it, "median": med, "p2_5": lo, "p97_5": hi,
             "replications": 2}
            for (m, it), (med, lo, hi) in PINNED_SUMMARY.items()
        ]

    @pytest.mark.parametrize("method", ["random", "candidate"])
    def test_baseline_failure_keeps_partial(self, method, monkeypatch):
        # a baseline arm's failure used to raise the bare exception, losing
        # the points it had evaluated
        real = simulators.PROBLEMS["snake"]
        calls = []

        def flaky(world, x):
            calls.append(x)
            if len(calls) == 6:  # 4 initial points, then iteration 2
                raise RuntimeError("sensor died")
            return real.simulate(world, x)

        monkeypatch.setitem(simulators.PROBLEMS, "snake", real._replace(simulate=flaky))
        plan = BenchPlan("snake", methods=(method,), replications=1, n_init=4,
                         n_seq=3, d=5, candidate_c=50)
        with pytest.raises(CampaignError, match="iteration 2 failed") as err:
            run_bench(plan)
        partial = err.value.partial
        assert isinstance(err.value.cause, RuntimeError)
        assert partial.design.n == 5 and partial.n_seq == 2
        assert [h["iteration"] for h in partial.history] == [1]
        assert partial.history[0]["point"] == list(calls[4].levels)
        assert partial.responses[-1] == partial.history[0]["response"]

    def test_history_keys_in_order(self, monkeypatch):
        campaigns = []
        inner = bench.run_loop

        def keep(*args):
            campaigns.append(inner(*args))
            return campaigns[-1]

        monkeypatch.setattr(bench, "run_loop", keep)
        run_bench(BenchPlan("snake", methods=("random", "candidate"), replications=1,
                            n_init=4, n_seq=2, d=5, candidate_c=50, time_limit=None))
        random_c, candidate_c = campaigns
        assert [list(h) for h in random_c.history] == [
            ["iteration", "point", "response", "wall_time"]] * 2
        assert [list(h) for h in candidate_c.history] == [
            ["iteration", "point", "acq_value", "theta", "mu", "tau2", "response",
             "wall_time"]] * 2
