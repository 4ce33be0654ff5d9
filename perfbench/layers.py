"""Per-layer metrics of a traced run.

Times are per traced pass (the mean over the run's traced passes, which all
repeat the same inputs). Counts are those of the first traced pass, taken
only over operations that did not end at a wall-clock limit; they must be
identical in every traced pass. Rates (``*_per_s``) pool every traced pass.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from tracer import LAYERS

THETA_CLIP = (1e-3, 10.0)  # quip.gp's bounds on theta
SIMULATORS = [attr for _, attr in LAYERS["simulators"]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _profile_nll(model) -> float:
    """Profile NLL of a fitted model, from its Cholesky factor and tau2."""
    return 0.5 * model.n * math.log(model.params.tau2) + float(
        np.sum(np.log(np.diag(model.chol)))
    )


def _at_clip(theta) -> int:
    lo, hi = THETA_CLIP
    theta = np.asarray(theta)
    return int(np.sum((theta <= lo * (1 + 1e-9)) | (theta >= hi * (1 - 1e-9))))


def per_layer(workload, tracer, traced, walls):
    """Return (metrics, report lines, problems) for a traced run."""
    n = len(traced)
    exact = tracer.exact_counts[0]
    problems = []
    if any(c != exact for c in tracer.exact_counts[1:]):
        problems.append("work counts differ between traced passes on identical inputs")
    incl, selft, res = tracer.inclusive, tracer.self_time, tracer.results

    def first(name):  # payloads of the first traced pass, with their limited flag
        return [(limited, p) for k, limited, p in res[name] if k == 0]

    m: dict[str, tuple[float, str]] = {}
    fits = [p for _, p in first("fit_mle") if not p.is_constant]
    m["gp.fit_s"] = (incl["fit_mle"] / n, "s")
    m["gp.fit_p50_s"] = (_median(tracer.durations["fit_mle"]), "s")
    m["gp.fit_calls"] = (exact["fit_mle"], "count")
    m["gp.fit_nll"] = (_ratio(sum(_profile_nll(f) for f in fits), len(fits)), "nats")
    m["gp.theta_at_clip"] = (sum(_at_clip(f.params.theta) for f in fits), "count")
    m["gp.build_s"] = (incl["build_model"] / n, "s")
    m["gp.build_calls"] = (exact["build_model"], "count")
    m["gp.predict_batch_s"] = (incl["predict_batch"] / n, "s")
    m["gp.predict_batch_calls"] = (exact["predict_batch"], "count")
    m["gp.predict_rows"] = (exact["predict_rows"], "count")

    solves_all = [(kind, rep) for _, _, (kind, rep) in res["optimize_acquisition"]]
    solves = first("optimize_acquisition")
    for kind in (None, "ucb", "alm"):
        prefix = "acquisition." if kind is None else f"acquisition.{kind}."
        mine = [rep for _, (k, rep) in solves if kind in (None, k)]
        exact_nodes = [rep for limited, (k, rep) in solves
                       if not limited and kind in (None, k)]
        pooled = [rep for k, rep in solves_all if kind in (None, k)]
        m[prefix + "nodes"] = (sum(r.nodes for r in exact_nodes), "count")
        m[prefix + "nodes_per_s"] = (_ratio(sum(r.nodes for r in pooled),
                                            sum(r.elapsed for r in pooled)), "1/s")
        if kind is None:
            statuses = [r.status for r in mine]
            m["acquisition.solve_p50_s"] = (
                _median(tracer.durations["optimize_acquisition"]), "s")
            for status in ("optimal", "gap_reached", "time_limit"):
                m[f"acquisition.status.{status}"] = (statuses.count(status), "count")
            m["acquisition.gap_mean"] = (
                _ratio(sum(r.relative_gap for r in mine), len(mine)), "share")
            m["acquisition.uncertified_frac"] = (
                _ratio(statuses.count("time_limit"), len(mine)), "share")

    feas = first("solve_feasibility")
    stalled = [r for _, _, r in res["solve_feasibility"] if r.status == "time_limit"]
    designs = [r for _, r in first("optimize_maximin")]
    m["maximin.solve_s"] = (incl["solve_feasibility"] / n, "s")
    m["maximin.nodes"] = (sum(r.nodes_explored for limited, r in feas
                              if not limited and r.status != "time_limit"), "count")
    m["maximin.nodes_per_s"] = (_ratio(sum(r.nodes_explored for r in stalled),
                                       sum(r.elapsed for r in stalled)), "1/s")
    m["maximin.feasibility_solves"] = (exact["solve_feasibility"], "count")
    m["maximin.phase1_decided"] = (_ratio(
        sum(r.nodes_explored == 0 and r.status == "feasible" for _, r in feas),
        len(feas)), "share")
    m["maximin.uncertified_frac"] = (
        _ratio(sum(not d.certified for d in designs), len(designs)), "share")

    m["encoding.as_array_calls"] = (exact["as_array"], "count")
    m["encoding.as_array_s"] = (incl["as_array"] / n, "s")
    m["sequential.iter_self_s"] = (selft["run_campaign"] / n, "s")
    evals_all = sum(tracer.all_counts[s] for s in SIMULATORS)
    eval_s = sum(incl[s] for s in SIMULATORS)
    m["simulators.evals"] = (sum(exact[s] for s in SIMULATORS), "count")
    m["simulators.eval_s"] = (eval_s / n, "s")
    m["simulators.evals_per_s"] = (_ratio(evals_all, eval_s), "1/s")

    arms = [op.extra.get("arm_s", {}) for p in traced for op in p.ops]
    for method in ("quip", "random", "candidate"):
        m[f"bench.arm_s.{method}"] = (sum(a.get(method, 0.0) for a in arms) / n, "s")
    m["bench.initial_design_s"] = (incl["initial_design"] / n, "s")

    layer_self = tracer.layer_self_times()
    for layer in LAYERS:
        if layer != "sequential":  # its self time is sequential.iter_self_s
            m[f"{layer}.self_s"] = (layer_self[layer] / n, "s")
    untraced_wall = statistics.fmean(u for u, _ in walls)
    traced_wall = statistics.fmean(t for _, t in walls)
    m["trace.unattributed_s"] = (layer_self["benchmark"] / n, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.overhead_frac"] = (_ratio(traced_wall - untraced_wall, untraced_wall), "share")
    m["trace.spans"] = (len(tracer.spans) // n, "count")

    accounted = sum(layer_self.values()) / n
    if not math.isclose(accounted, traced_wall, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"self times add up to {accounted} s, traced wall is {traced_wall} s")
    lines = [f"{workload.name}: {n} traced passes, per traced pass:"]
    for layer in list(LAYERS) + ["benchmark"]:
        name = "unattributed" if layer == "benchmark" else layer
        lines.append(f"  {name:<14} self {layer_self[layer] / n:9.4f} s "
                     f"{100 * _ratio(layer_self[layer] / n, traced_wall):5.1f}%")
    lines += [
        f"  sum            self {accounted:9.4f} s = traced wall {traced_wall:.4f} s",
        f"  tracing overhead {traced_wall - untraced_wall:+.4f} s on an untraced wall "
        f"of {untraced_wall:.4f} s ({100 * m['trace.overhead_frac'][0]:+.1f}%)",
    ]
    if any(arms):
        lines.append(f"  rep_s          {untraced_wall:.4f} s "
                     "(the untraced replication, all three arms)")
    return m, lines, problems
