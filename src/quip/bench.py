"""Benchmark harness: seeded replicated comparisons of sequential-design
methods on the shipped simulators.

Output is data, not plots: a per-iteration row table (CSV) and an
aggregated summary (JSON) with the median and the empirical 2.5/97.5
percentile band across replications.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .acquisition import (
    DEFAULT_GAP,
    DEFAULT_LAMBDA,
    AcquisitionSpec,
    candidate_set_acquisition,
    random_point,
)
from .bounds import q0
from .encoding import Design, Point, check_int, read_json, write_json
from .gp import FitConfig, fit_mle, predict_batch
from .maximin import FeasibilityInstance, solve_feasibility
from .sequential import fit_fields, rrmse, run_campaign, run_loop
from .simulators import PROBLEMS

METHODS = ("quip", "random", "candidate")


@dataclass(frozen=True)
class BenchPlan:
    problem: str  # a key of simulators.PROBLEMS
    methods: tuple[str, ...] = METHODS
    replications: int = 20
    seed: int = 0
    n_init: int = 20
    n_seq: int = 30
    d: int | None = None  # None: the problem's native path length
    acq: str = "ucb"
    lam: float = DEFAULT_LAMBDA
    gap_tolerance: float = DEFAULT_GAP
    time_limit: float | None = 5.0  # per acquisition solve
    candidate_c: int = 2000
    mode: str = "opt"  # "opt" (best-so-far) or "active" (adds RRMSE)
    test_size: int = 500
    test_seed: int = 12345

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        # plan files are JSON: a 2.0 or a true must fail here, naming its field
        ints = dict(replications=1, seed=0, n_init=1, n_seq=0, candidate_c=1)
        if self.d is not None:
            ints["d"] = 1
        if self.mode == "active":
            ints.update(test_size=2, test_seed=0)  # the RRMSE needs two test points
        for name, low in ints.items():
            check_int(name, getattr(self, name), low)
        if not self.methods:
            raise ValueError("methods must be non-empty")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods {self.methods!r} repeat a method")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.n_init < 2 and {"quip", "candidate"} & set(self.methods):
            raise ValueError("n_init must be >= 2 for the arms that fit a model")
        if self.mode not in ("opt", "active"):
            raise ValueError("mode must be 'opt' or 'active'")
        if self.mode == "active" and self.n_init + self.n_seq < 2:
            raise ValueError("mode 'active' needs n_init + n_seq >= 2 for its final fit")
        self.spec()  # reject a bad acquisition now, not inside the first arm

    def spec(self) -> AcquisitionSpec:
        """The acquisition spec every arm solves with."""
        return AcquisitionSpec(self.acq, self.lam, self.gap_tolerance, self.time_limit)


@dataclass(frozen=True)
class BenchReport:
    plan: BenchPlan
    rows: tuple[dict, ...]
    summary: tuple[dict, ...] = field(default=())


def problem_objective(problem: str, d: int | None = None):
    """(d, M, objective) for a problem id; objective is maximization-signed
    (costs are negated)."""
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    p = PROBLEMS[problem]
    config = p.config()
    d = p.d if d is None else d
    return d, p.M, lambda x: p.sign * p.simulate(config, x).value


def _rep_seed(master: int, rep: int) -> int:
    return int(np.random.SeedSequence([master, rep]).generate_state(1)[0])


def initial_design(n: int, d: int, M: int, seed: int) -> Design:
    """Seeded space-filling initial design: a witness at the guaranteed
    distance q0, repaired from a random start drawn from `seed`, so each
    seed gives its own design (fast; the full maximin optimum is not needed
    here)."""
    rep = solve_feasibility(FeasibilityInstance(n, d, M, q=q0(n, d, M), seed=seed))
    assert rep.design is not None
    return rep.design


def _test_set(d: int, M: int, size: int, seed: int, objective):
    rng = np.random.default_rng(seed)
    X = rng.integers(1, M + 1, size=(size, d))
    y = np.array([objective(Point(r, M)) for r in X])
    return X, y


def _rrmse_on_test(D: Design, f: np.ndarray, X_test, y_test, fit_config: FitConfig):
    model = fit_mle(D, f, fit_config)
    mean, _ = predict_batch(model, X_test)
    return rrmse(y_test, mean)


def _run_arm(method: str, plan: BenchPlan, rep: int, objective, init: Design,
             f0: np.ndarray, test=None) -> list[dict]:
    seed = _rep_seed(plan.seed, rep)
    spec = plan.spec()
    fit_config = FitConfig(n_starts=4, seed=seed)  # every fit of the arm
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBE]))

    def candidate(D, f):
        model = fit_mle(D, f, fit_config)
        x, value = candidate_set_acquisition(
            model, spec, plan.candidate_c, int(rng.integers(0, 2**31)))
        return x, {"acq_value": value, **fit_fields(model)}

    def row(it, best, elapsed):
        return {
            "method": method,
            "replication": rep,
            "seed": seed,
            "iteration": it,
            "best_so_far": best,
            "wall_time": elapsed,
            "rrmse": None,
            "candidate_c": plan.candidate_c if method == "candidate" else None,
        }

    t_start = time.perf_counter()
    if method == "quip":
        c = run_campaign(init, f0, objective, spec, plan.n_seq, seed=seed,
                         fit_config=fit_config)
    else:
        choose = candidate if method == "candidate" else (
            lambda D, f: (random_point(D.d, D.M, rng), {}))
        c = run_loop(init, f0, objective, spec, plan.n_seq, choose, seed)
    best = float(f0.max())
    rows = [row(0, best, 0.0)]
    for h in c.history:
        best = max(best, h["response"])
        rows.append(row(h["iteration"], best, h["wall_time"]))
    if plan.mode == "active" and test is not None:
        X_test, y_test = test
        # RRMSE of the final fitted model per arm (active-learning metric)
        rows[-1]["rrmse"] = _rrmse_on_test(c.design, c.responses, X_test, y_test, fit_config)
    rows[-1]["total_time"] = time.perf_counter() - t_start
    return rows


def aggregate(rows) -> list[dict]:
    """Median and empirical 2.5/97.5 percentiles of best-so-far per
    (method, iteration)."""
    keys = sorted({(r["method"], r["iteration"]) for r in rows})
    out = []
    for method, it in keys:
        vals = np.array(
            [r["best_so_far"] for r in rows
             if r["method"] == method and r["iteration"] == it]
        )
        out.append(
            {
                "method": method,
                "iteration": it,
                "median": float(np.median(vals)),
                "p2_5": float(np.percentile(vals, 2.5)),
                "p97_5": float(np.percentile(vals, 97.5)),
                "replications": int(vals.size),
            }
        )
    return out


def run_bench(plan: BenchPlan) -> BenchReport:
    """Run every (method, replication) arm of the plan.

    All methods within a replication share the same seeded initial design
    and initial responses, so differences are attributable to the
    acquisition strategy alone.
    """
    d, M, objective = problem_objective(plan.problem, plan.d)
    test = None
    if plan.mode == "active":
        test = _test_set(d, M, plan.test_size, plan.test_seed, objective)
        if np.all(test[1] == test[1][0]):
            raise ValueError("the test set's responses are all equal: its RRMSE is undefined")
    rows: list[dict] = []
    for rep in range(plan.replications):
        seed = _rep_seed(plan.seed, rep)
        init = initial_design(plan.n_init, d, M, seed)
        f0 = np.array([objective(p) for p in init.points])
        for method in plan.methods:
            rows.extend(_run_arm(method, plan, rep, objective, init, f0, test))
    rows.sort(key=lambda r: (r["method"], r["seed"], r["iteration"]))
    return BenchReport(plan, tuple(rows), tuple(aggregate(rows)))


def write_rows_csv(rows, path) -> None:
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    cols: list[str] = []
    for r in rows:
        for k in r:
            if k not in cols:
                cols.append(k)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=cols)
        w.writeheader()
        w.writerows(rows)


def write_report(report: BenchReport, out_dir) -> None:
    """Emit rows.csv and summary.json under out_dir (created if missing)."""
    os.makedirs(out_dir, exist_ok=True)
    write_rows_csv(report.rows, os.path.join(out_dir, "rows.csv"))
    summary = {"plan": asdict(report.plan), "aggregate": list(report.summary)}
    write_json(summary, os.path.join(out_dir, "summary.json"))


def plan_from_dict(obj: dict) -> BenchPlan:
    kwargs = {k: v for k, v in obj.items() if k != "schema_version"}
    if "methods" in kwargs:
        kwargs["methods"] = tuple(kwargs["methods"])
    return BenchPlan(**kwargs)


def load_plan(path) -> BenchPlan:
    return plan_from_dict(read_json(path))
