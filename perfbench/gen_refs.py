"""Regenerate ``perfbench/refs.json``: the frozen inputs and the reference
answers of the benchmark's three workloads.

Run it from the repository root, at the commit whose answers become the
references (it takes about four minutes on a 2-core machine):

    OPENBLAS_NUM_THREADS=1 python3 perfbench/gen_refs.py

Acquisition suite. Each d=12 snake model is made here once and then frozen:
its design (a seeded q0 witness from ``quip.bench.initial_design``, or a
seeded uniform random design), its responses, and the theta, mu and tau2
that ``fit_mle`` returned. The workload rebuilds the model from these
literals, so later changes to the design generator, the simulator or the
fit cannot move it. Every solve is classed:

* ``certified``: certifies at gap 0 here, with no time limit. Its optimum
  is stored as the reference.
* ``limited``: a model whose fit pins theta at the clip. The workload runs
  the solve under a short fixed limit and counts it as uncertified. Here it
  gets up to a minute; if it certifies in that time, its optimum is stored
  too, so the workload can check the incumbent and the bound against it.

Snake campaign. The quip arm of criterion 10's snake replication (plan
seed 1010, replication 0) is run once here through ``quip.bench.run_bench``
and its campaign frozen: the 50 points and responses, the campaign seed and
the acquisition spec, with the point each iteration chose. The
``bench-snake-ucb`` workload replays single iterations from these states.

Maximin instances. The true q* of each instance is stored with its source:
a witness found here (lower side), and the complete search's exhaustion or
a classical bound on A_M(d, q*+1) (upper side). Instances are classed
``certified`` (certified here quickly under every seed tried) or
``limited``: the search for a witness, or for the proof, takes a time that
is heavy-tailed in the seed or unbounded, so the workload gives it a short
fixed limit and counts it as uncertified when the limit fires.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction
from math import comb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import quip  # noqa: E402
from quip.acquisition import AcquisitionSpec, optimize_acquisition  # noqa: E402
from quip import bench  # noqa: E402
from quip.bench import initial_design  # noqa: E402
from quip.encoding import design_from_array, min_pairwise_distance  # noqa: E402
from quip.gp import FitConfig, fit_mle  # noqa: E402
from quip.maximin import TooLargeError, brute_force_maximin, optimize_maximin  # noqa: E402
from quip.simulators import default_snake, snake_reward  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

D12, M5 = 12, 5
ACQ_LIMITED_S = 0.25  # per limited solve in the workload
ACQ_SAFETY_S = 20.0  # a certified solve that runs longer fails its check
PROOF_S = 60.0  # time a limited solve gets here

# (name, design kind, n, design seed, fit seed, certified kinds, limited kinds)
ACQ_MODELS = [
    ("q0-n30-s1", "q0", 30, 1001, 1, ("alm",), ()),
    ("q0-n30-s2", "q0", 30, 1002, 2, ("ucb",), ()),
    ("q0-n40-s0", "q0", 40, 1000, 0, ("ucb", "alm"), ()),
    ("q0-n40-s1", "q0", 40, 1001, 1, ("alm",), ()),
    ("q0-n50-s1", "q0", 50, 1001, 1, ("ucb", "alm"), ()),
    ("q0-n60-s0", "q0", 60, 1000, 0, ("ucb",), ()),
    ("q0-n60-s2", "q0", 60, 1002, 2, ("ucb", "alm"), ()),
    ("q0-n90-s0", "q0", 90, 1000, 0, ("alm",), ()),
    ("q0-n90-s1", "q0", 90, 1001, 1, ("ucb",), ()),
    ("q0-n100-s3", "q0", 100, 1003, 3, ("ucb", "alm"), ()),
    ("rand-n20-s0", "random", 20, 2000, 0, (), ("ucb", "alm")),
]

MAXIMIN_SAFETY_S = 20.0
MAXIMIN_SEARCH_S = 5.0  # time a limited instance gets here, to find its witness
MAXIMIN_SEEDS = range(8)
# (n, d, M, class, workload time limit for the limited class)
MAXIMIN_INSTANCES = [
    (9, 7, 2, "certified", None),
    (4, 8, 3, "certified", None),
    (5, 5, 2, "certified", None),
    (5, 6, 3, "certified", None),
    (6, 6, 2, "certified", None),
    (8, 7, 2, "certified", None),
    (4, 8, 2, "certified", None),
    (10, 4, 3, "certified", None),
    (7, 5, 3, "certified", None),
    (12, 5, 2, "certified", None),
    (12, 4, 2, "certified", None),
    (20, 8, 5, "limited", 0.25),
    (13, 6, 3, "limited", 1.5),
    (30, 8, 9, "limited", 1.5),
]


def _theta_at_clip(theta) -> int:
    theta = np.asarray(theta)
    return int(np.sum((theta <= 1e-3 * (1 + 1e-9)) | (theta >= 10.0 * (1 - 1e-9))))


def _model_entry(name, kind, n, design_seed, fit_seed, certified, limited):
    world = default_snake()
    if kind == "q0":
        D = initial_design(n, D12, M5, design_seed)
    else:
        rng = np.random.default_rng(design_seed)
        D = design_from_array(rng.integers(1, M5 + 1, size=(n, D12)), M5)
    f = np.array([snake_reward(world, p).value for p in D.points])
    model = fit_mle(D, f, FitConfig(n_starts=4, seed=fit_seed))
    solves = []
    for acq in certified:
        rep = optimize_acquisition(model, AcquisitionSpec(acq, gap_tolerance=0.0))
        if rep.status != "optimal":
            raise SystemExit(f"{name}/{acq}: expected a certificate, got {rep.status}")
        solves.append({
            "kind": acq, "class": "certified",
            "ref_value": rep.best_value, "ref_point": list(rep.best_point.levels),
            "parent_nodes": rep.nodes, "parent_s": round(rep.elapsed, 3),
        })
    for acq in limited:
        rep = optimize_acquisition(
            model, AcquisitionSpec(acq, gap_tolerance=0.0, time_limit=PROOF_S)
        )
        entry = {"kind": acq, "class": "limited", "parent_status": rep.status,
                 "parent_nodes": rep.nodes, "parent_s": round(rep.elapsed, 3)}
        if rep.status == "optimal":
            entry["ref_value"] = rep.best_value
            entry["ref_point"] = list(rep.best_point.levels)
        else:
            entry["parent_relative_gap"] = rep.relative_gap
        solves.append(entry)
    print(f"  {name}: clip={_theta_at_clip(model.params.theta)} "
          + ", ".join(f"{s['kind']}:{s['class']}:{s['parent_nodes']}" for s in solves),
          flush=True)
    return {
        "name": name, "design_kind": kind, "design_seed": design_seed,
        "fit_seed": fit_seed, "n": n,
        "points": D.as_array().tolist(),
        "responses": f.tolist(),
        "theta": model.params.theta.tolist(),
        "mu": model.params.mu,
        "tau2": model.params.tau2,
        "nugget": model.nugget,
        "theta_at_clip": _theta_at_clip(model.params.theta),
        "solves": solves,
    }


CAMPAIGN_PLAN = dict(problem="snake", methods=("quip",), replications=1, seed=1010,
                     n_init=20, n_seq=30, d=8, acq="ucb", lam=2.96,
                     gap_tolerance=0.10, time_limit=None)


def _campaign_entry() -> dict:
    """The quip-arm campaign of the plan's one replication, as run_bench runs it."""
    calls = []
    inner = bench.run_campaign

    def keep(*args, **kwargs):
        c = inner(*args, **kwargs)
        calls.append((kwargs, c))
        return c

    bench.run_campaign = keep
    try:
        bench.run_bench(bench.BenchPlan(**CAMPAIGN_PLAN))
    finally:
        bench.run_campaign = inner
    (kwargs, c), = calls
    fit = kwargs["fit_config"]
    print(f"  campaign: {c.design.n} points, best {max(c.responses)}", flush=True)
    return {
        "plan": {k: list(v) if isinstance(v, tuple) else v for k, v in CAMPAIGN_PLAN.items()},
        "n_init": CAMPAIGN_PLAN["n_init"],
        "M": c.design.M,
        "seed": kwargs["seed"],
        "fit_n_starts": fit.n_starts,
        "fit_seed": fit.seed,
        "spec": {"kind": c.spec.kind, "lam": c.spec.lam,
                 "gap_tolerance": c.spec.gap_tolerance, "time_limit": c.spec.time_limit},
        "points": c.design.as_array().tolist(),
        "responses": c.responses.tolist(),
        "chosen": [{"iteration": h["iteration"], "point": h["point"],
                    "acq_value": h["acq_value"], "solver_status": h["solver_status"]}
                   for h in c.history],
    }


def _upper_bounds(d: int, M: int, q: int) -> dict[str, int | None]:
    """Classical upper bounds on A_M(d, q), exact; None where one does not apply."""
    t = (q - 1) // 2
    ball = sum(comb(d, i) * (M - 1) ** i for i in range(t + 1))
    out: dict[str, int | None] = {
        "Singleton": M ** (d - q + 1),
        "Hamming": M**d // ball,
        "Plotkin": None,
    }
    theta_d = Fraction(M - 1, M) * d
    if q > theta_d:
        out["Plotkin"] = int(Fraction(q) / (q - theta_d))  # floor, positive
    return out


def _maximin_entry(n, d, M, klass, limit):
    witnesses: dict[int, int] = {}  # q -> seed that found a witness
    proved_infeasible: set[int] = set()
    per_seed = []
    for seed in MAXIMIN_SEEDS:
        t0 = time.perf_counter()
        res = optimize_maximin(n, d, M, time_limit=MAXIMIN_SEARCH_S if limit else
                               MAXIMIN_SAFETY_S, seed=seed)
        elapsed = time.perf_counter() - t0
        q_found = min_pairwise_distance(res.design)
        witnesses.setdefault(q_found, seed)
        for s in res.trace:
            if s.status == "infeasible":
                proved_infeasible.add(s.q)
        per_seed.append({"seed": seed, "q_star": res.q_star, "certified": res.certified,
                         "seconds": round(elapsed, 3)})
    lower = max(witnesses)
    upper_sources = {}
    if lower + 1 in proved_infeasible:
        upper_sources["exhaustion"] = True
    if lower == d - 1 and n > M:
        upper_sources["pigeonhole (q <= d-1 when n > M)"] = True
    if lower < d:
        for bound, value in _upper_bounds(d, M, lower + 1).items():
            if value is not None and n > value:
                upper_sources[f"{bound}: A_{M}({d},{lower + 1}) <= {value} < {n}"] = True
    if not upper_sources:
        raise SystemExit(f"({n},{d},{M}): no proof that q*={lower} is optimal")
    brute = None
    try:
        brute, _ = brute_force_maximin(n, d, M, guard=2 * 10**6)
    except TooLargeError:
        pass
    if brute is not None and brute != lower:
        raise SystemExit(f"({n},{d},{M}): brute force gives {brute}, search gives {lower}")
    all_certified = all(r["certified"] for r in per_seed)
    if klass == "certified" and not all_certified:
        raise SystemExit(f"({n},{d},{M}) did not certify under every seed")
    print(f"  ({n},{d},{M}) q*={lower} upper: {sorted(upper_sources)}", flush=True)
    return {
        "n": n, "d": d, "M": M, "class": klass, "time_limit": limit,
        "true_q": lower,
        "lower_source": f"witness found by optimize_maximin(seed={witnesses[lower]})",
        "upper_sources": sorted(upper_sources),
        "brute_force_q": brute,
        "parent_runs": per_seed,
    }


def main() -> None:
    t0 = time.perf_counter()
    print("snake campaign", flush=True)
    campaign = _campaign_entry()
    print("acquisition suite", flush=True)
    models = [_model_entry(*spec) for spec in ACQ_MODELS]
    print("maximin instances", flush=True)
    instances = [_maximin_entry(*spec) for spec in MAXIMIN_INSTANCES]
    refs = {
        "generated_with": {
            "quip": quip.__version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "campaign": campaign,
        "acq": {
            "d": D12, "M": M5,
            "limited_time_limit": ACQ_LIMITED_S,
            "safety_time_limit": ACQ_SAFETY_S,
            "models": models,
        },
        "maximin": {
            "safety_time_limit": MAXIMIN_SAFETY_S,
            "seeds_tried": list(MAXIMIN_SEEDS),
            "instances": instances,
        },
    }
    with open(OUT, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {OUT} in {time.perf_counter() - t0:.0f}s")


if __name__ == "__main__":
    main()
