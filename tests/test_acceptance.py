"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The summary lines are written to the real stdout so they remain visible
under pytest's output capture.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from quip.acquisition import (
    AcquisitionSpec,
    enumerate_acquisition,
    optimize_acquisition,
)
from quip.bench import BenchPlan, run_bench, write_report
from quip.bounds import q0
from quip.encoding import Point, design_from_array, lattice_distances
from quip.gp import (
    FitConfig,
    KernelParams,
    build_model,
    cross_correlation,
    fit_mle,
    predict_batch,
)
from quip.maximin import (
    FEASIBLE,
    FeasibilityInstance,
    brute_force_maximin,
    optimize_maximin,
    solve_feasibility,
)
from quip.sequential import rrmse
from quip.simulators import (
    GridWorld,
    ObstacleCourse,
    default_snake,
    rover_cost,
    snake_reward,
)


@pytest.fixture
def emit(capfd):
    """Print a line on the real stdout, bypassing pytest's fd capture."""

    def _emit(line: str) -> None:
        with capfd.disabled():
            print(line, flush=True)

    return _emit


@pytest.fixture
def report(emit):
    def _report(num: int, desc: str, ok: bool) -> None:
        line = f"ACCEPTANCE {num:>2}: {desc}: {'PASS' if ok else 'FAIL'}"
        emit(line)
        assert ok, line

    return _report


def _random_distinct_design(rng, n, d, M):
    seen, rows = set(), []
    while len(rows) < n:
        cand = tuple(int(v) for v in rng.integers(1, M + 1, size=d))
        if cand not in seen:
            seen.add(cand)
            rows.append(cand)
    return design_from_array(np.array(rows), M)


def test_criterion_01_maximin_oracle_equivalence(report):
    ok = True
    for n, d, M in itertools.product(range(2, 6), range(2, 5), (2, 3)):
        got = optimize_maximin(n, d, M).q_star
        want, _ = brute_force_maximin(n, d, M)
        if got != want:
            ok = False
            break
    report(1, "maximin matches brute-force oracle on the full small grid", ok)


def test_criterion_02_q0_always_feasible(report):
    ok = True
    for n, d, M in itertools.product(range(2, 21), range(2, 11), range(2, 9)):
        rep = solve_feasibility(
            FeasibilityInstance(n, d, M, q0(n, d, M), time_limit=60.0)
        )
        if rep.status != FEASIBLE:
            ok = False
            break
    report(2, "feasibility holds at the guaranteed distance q0 over the grid", ok)


def test_criterion_03_upper_bound_attainment(report):
    t0 = time.perf_counter()
    r8 = optimize_maximin(8, 10, 10)
    elapsed = time.perf_counter() - t0
    r11 = optimize_maximin(11, 10, 10, time_limit=120.0)
    ok = r8.q_star == 10 and elapsed < 1.0 and r11.q_star <= 9
    report(3, "n=8,d=10,M=10 attains q*=d fast; n=11 capped at d-1", ok)


def test_criterion_04_gp_interpolation(report):
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(50):
        d = int(rng.integers(2, 11))
        M = int(rng.integers(2, 6))
        n = int(rng.integers(3, min(41, M**d)))
        D = _random_distinct_design(rng, n, d, M)
        theta = rng.uniform(0.3, 2.0, d)
        params = KernelParams(theta, rng.normal(), float(rng.uniform(0.5, 3.0)))
        f = rng.normal(size=n) * 2.0
        model = build_model(D, f, params)
        mean, var = predict_batch(model, D.as_array())
        frange = float(f.max() - f.min())
        if (np.max(np.abs(mean - f)) > 1e-5 * frange
                or var.max() > 1e-5 * model.params.tau2):
            ok = False
            break
    report(4, "GP interpolates all training points on 50 random models", ok)


def test_criterion_05_acquisition_oracle_equivalence(report):
    rng = np.random.default_rng(505)
    ok = True
    for i in range(50):
        d = int(rng.integers(3, 7))
        M = int(rng.integers(2, 5))
        n = 5 if i % 2 == 0 else 15
        n = min(n, M**d - 1)  # small lattices cannot host 15 distinct points
        D = _random_distinct_design(rng, n, d, M)
        f = rng.normal(size=n)
        model = fit_mle(D, f, FitConfig(n_starts=4, seed=i))
        for kind in ("alm", "ucb"):
            spec = AcquisitionSpec(kind, lam=2.96, gap_tolerance=0.0)
            got = optimize_acquisition(model, spec).best_value
            _, want = enumerate_acquisition(model, spec)
            if abs(got - want) > 1e-9:
                ok = False
                break
        if not ok:
            break
    report(5, "branch-and-bound matches lattice enumeration on 50 models", ok)


def _d_optimality_gap(theta):
    """|ratio - 1|, where ratio is (1 + det at the determinant-optimal
    design) over (1 + det at the maximin design), among 3-point designs
    in {1,2}^3 under the isotropic kernel `theta`.

    Both optima come from enumerating every point multiset. Among the
    maximin-optimal designs the determinant-largest one is used, since
    symmetry does not fix the determinant.
    """
    pts, dist = lattice_distances(3, 2)
    corr = cross_correlation(pts, pts, np.full(3, theta))
    best_det, best_maximin = -np.inf, (-1, -np.inf)
    for combo in itertools.combinations_with_replacement(range(len(pts)), 3):
        idx = np.ix_(combo, combo)
        det = float(np.linalg.det(corr[idx]))
        q = int(dist[idx][np.triu_indices(3, 1)].min())
        best_det = max(best_det, det)
        best_maximin = max(best_maximin, (q, det))
    return abs((1.0 + best_det) / (1.0 + best_maximin[1]) - 1.0)


def test_criterion_06_d_optimality_trend(report):
    gaps = [_d_optimality_gap(float(k)) for k in (1, 2, 4, 8, 16)]
    monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    ok = monotone and gaps[-1] <= 0.05
    report(6, "D-optimality ratio approaches 1 as the kernel scale grows", ok)


def test_criterion_07_snake_hand_values(report):
    plain = GridWorld(8, 8, (4, 4))
    no_prize = snake_reward(plain, Point((1, 2) * 6, 5)).value
    corner = GridWorld(3, 3, (1, 1))
    oob_first = snake_reward(corner, Point((3,) + (5,) * 11, 5)).trace[0]["step_value"]
    prize_world = GridWorld(3, 3, (1, 1), prizes=frozenset({(2, 1)}))
    prize_first = snake_reward(
        prize_world, Point((4,) + (5,) * 11, 5)
    ).trace[0]["step_value"]
    ok = no_prize == -132.0 and oob_first == -10.0 and prize_first == 60.0
    report(7, "snake rewards match the hand-derived values exactly", ok)


def test_criterion_08_rover_exactness(report):
    course = ObstacleCourse(boxes=())
    stay = rover_cost(course, Point((9,) * 8, 9)).value
    expected = 50.0 * math.dist(course.start, course.target) - 5.0
    ok = abs(stay - expected) <= 1e-12
    fine = dataclasses.replace(course, substeps=200)
    rng = np.random.default_rng(808)
    for _ in range(100):
        p = Point(tuple(rng.integers(1, 10, size=8)), 9)
        a = rover_cost(course, p).value
        b = rover_cost(fine, p).value
        if abs(a - b) > 1e-6:
            ok = False
            break
    report(8, "rover cost matches closed form and refinement oracle", ok)


def _gap_stop_against_enumeration(seed, reps):
    """Over `reps` snake models, each fitted at 20 random distinct points of
    {1,2,3}^8 (levels read as the first 3 snake actions): how many 10%-gap
    UCB solves certify a bound >= the enumerated optimum, and the median
    relative slack of that bound."""
    world = default_snake()
    spec = AcquisitionSpec("ucb", 2.96, 0.10)
    exact = AcquisitionSpec("ucb", 2.96, 0.0)
    conservative, slacks = 0, []
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([seed, rep, 0x5CA7]))
        D = _random_distinct_design(rng, 20, 8, 3)
        f = np.array([snake_reward(world, Point(r, 5)).value for r in D.as_array()])
        model = fit_mle(D, f, FitConfig(n_starts=4, seed=rep))
        bound = optimize_acquisition(model, spec).certified_bound
        _, true_opt = enumerate_acquisition(model, exact)
        conservative += bound >= true_opt - 1e-9
        slacks.append((bound - true_opt) / max(abs(true_opt), 1e-12))
    return conservative, float(np.median(slacks))


def test_criterion_09_bound_conservativeness(report, emit):
    conservative, slack = _gap_stop_against_enumeration(909, 100)
    emit(
        f"  criterion 9 detail: {conservative}/100 conservative, "
        f"median relative slack {slack:.4f} (target <= 0.25, reported only)"
    )
    report(9, "certified bound >= true optimum in 100/100 gap-stop solves",
           conservative == 100)


def test_criterion_11_rrmse_definitional(report):
    y = np.array([1.0, 2.0, 6.0])
    checks = [
        abs(rrmse(y, y)) <= 1e-12,
        abs(rrmse(y, np.full(3, y.mean())) - 1.0) <= 1e-12,
        abs(rrmse([0.0, 2.0], [1.0, 1.0]) - 1.0) <= 1e-12,
    ]
    report(11, "RRMSE definitional checks are exact", all(checks))


def test_criterion_10_desk_scale_snake_campaign(report, emit, tmp_path):
    plan = BenchPlan(
        "snake",
        methods=("quip", "random"),
        replications=20,
        n_init=20,
        n_seq=30,
        d=8,
        acq="ucb",
        gap_tolerance=0.10,
        time_limit=5.0,
        seed=1010,
    )
    t0 = time.perf_counter()
    bench_report = run_bench(plan)
    elapsed = time.perf_counter() - t0
    write_report(bench_report, tmp_path / "snake_bench")

    def final_bests(method):
        return [
            r["best_so_far"] for r in bench_report.rows
            if r["method"] == method and r["iteration"] == plan.n_seq
        ]

    quip_med = float(np.median(final_bests("quip")))
    rand_med = float(np.median(final_bests("random")))
    emit(
        f"  criterion 10 detail: UCB median final best {quip_med:.1f} vs "
        f"random {rand_med:.1f}; {elapsed:.0f}s"
    )
    ok = quip_med >= rand_med and elapsed < 7200
    report(10, "UCB campaign median final best-so-far beats random baseline", ok)
