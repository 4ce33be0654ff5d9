"""The benchmark's three workloads.

Each workload is closed-loop with one caller: it makes its inputs from the
workload seed, calls the library through its module attributes (so the
tracer's wrappers see the calls), and runs one operation at a time. A pass
is one fixed unit of work, and ``samples`` are the latencies of its single
operations; the same operations repeat in every pass, so a run can take
each one's median. ``trace_pass`` is the unit of a traced run. Operations
that are expected to stop at a short wall-clock limit run in the first pass
only: their time is set by the limit, and repeating them would leave less
of the run for the timed work. Correctness checks run after a pass, outside
every timed and traced region, with the functions the workload held before
any wrapper was installed.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from quip import acquisition, bench, bounds, encoding, gp, maximin, sequential, simulators

REL_TOL = 1e-9
GAP_SLACK = 1e-12


@dataclass
class Op:
    """One operation: what it returned, how long it took, and its class."""

    label: str
    klass: str  # "certified": counted in pass_ref; "limited": may stop at a limit
    seconds: float = 0.0
    limited: bool = False  # ended at a wall-clock limit
    value: object = None
    error: str | None = None
    ref_s: float = 0.0  # reference time around the operation (untraced passes)
    extra: dict = field(default_factory=dict)


@dataclass
class Pass:
    ops: list[Op]
    pass_s: float
    samples: list[float]


def run_op(probe, op: Op, fn, ended_at_limit) -> Op:
    """Time one operation; `probe` (a Tracer, a Reference or None) brackets it."""
    frame = probe.begin_op() if probe is not None else None
    t0 = time.perf_counter()
    try:
        op.value = fn()
    except Exception:  # recorded and counted as a failed operation
        op.error = traceback.format_exc()
    op.seconds = time.perf_counter() - t0
    op.limited = op.error is None and ended_at_limit(op.value)
    if probe is not None:
        probe.end_op(frame, op)
    return op


def _seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _summary(ops: list[Op]) -> Pass:
    timed = [op.seconds for op in ops if op.klass == "certified" and op.error is None]
    return Pass(ops, float(sum(timed)), timed)


class BenchSnakeUcb:
    """Criterion 10's snake plan: d=8, M=5, n_init=20, n_seq=30, UCB
    (lambda 2.96) at a 10% gap with no time limit.

    A timed pass replays every third iteration of the plan's quip campaign
    (replication 0 of plan seed 1010, frozen in refs.json): each operation is
    ``run_campaign`` for one iteration (fit, acquire, evaluate) from the
    campaign's state before that iteration, in a seeded order. One iteration
    takes 0.2 to 0.6 s, so a run repeats each one several times. A whole
    replication (15 to 27 s, heavy-tailed in the replication seed) would fit
    only twice in a run.

    A traced pass is one ``run_bench`` replication of the same plan, with
    arms quip, random and candidate, so the per-layer run also covers the
    bench layer and the candidate arm."""

    name = "bench-snake-ucb"
    op_name = "iter"  # what one latency sample is
    min_passes = 5  # 10 iterations per pass: the p80 has 10 samples beyond it
    tail_pct = 80
    methods = ("quip", "random", "candidate")
    replay_every = 3

    def __init__(self, refs: dict, seed: int):
        self.seed = seed
        c = refs["campaign"]
        self.plan_kwargs = c["plan"]
        self.n_init, self.n_seq = c["n_init"], len(c["chosen"])
        self.d, self.M = len(c["points"][0]), c["M"]
        self.gap = c["spec"]["gap_tolerance"]
        self.spec = acquisition.AcquisitionSpec(**c["spec"])
        self.campaign_seed = c["seed"]
        self.fit_config = gp.FitConfig(n_starts=c["fit_n_starts"], seed=c["fit_seed"])
        self.chosen = c["chosen"]
        points = np.asarray(c["points"])
        responses = np.asarray(c["responses"], dtype=float)
        self.states = {}  # iteration -> (design, responses) before it
        for it in range(1, self.n_seq + 1, self.replay_every):
            n = self.n_init + it - 1
            self.states[it] = (encoding.design_from_array(points[:n], self.M), responses[:n])
        self.world = simulators.default_snake()
        self.snake = simulators.snake_reward
        self.min_distance = encoding.min_pairwise_distance
        self.q0 = bounds.q0(self.n_init, self.d, self.M)

    def objective(self, x) -> float:
        return simulators.snake_reward(self.world, x).value

    def run_pass(self, k: int, probe) -> Pass:
        iterations = sorted(self.states)
        order = np.random.default_rng(_seed(self.seed, k)).permutation(len(iterations))
        ops = []
        for i in order:
            it = iterations[i]
            D, f = self.states[it]
            op = Op(f"iteration {it}", "certified", extra={"iteration": it, "n": D.n})
            ops.append(run_op(probe, op, lambda: sequential.run_campaign(
                D, f, self.objective, self.spec, 1, seed=self.campaign_seed,
                fit_config=self.fit_config), lambda c: False))
        return _summary(ops)

    def trace_pass(self, probe) -> Pass:
        plan = bench.BenchPlan(**dict(self.plan_kwargs, methods=self.methods),
                               candidate_c=2000)
        campaigns = []
        inner = bench.run_campaign

        def keep_campaign(*args, **kwargs):
            c = inner(*args, **kwargs)
            campaigns.append(c)
            return c

        bench.run_campaign = keep_campaign
        try:
            op = run_op(probe, Op("replication", "certified"),
                        lambda: bench.run_bench(plan), lambda r: False)
        finally:
            bench.run_campaign = inner
        op.extra["campaigns"] = campaigns
        samples = []
        if op.error is None and campaigns:
            samples = [h["wall_time"] for h in campaigns[0].history]
            op.extra["arm_s"] = {r["method"]: r["total_time"]
                                 for r in op.value.rows if "total_time" in r}
        return Pass([op], op.seconds if op.error is None else 0.0, samples)

    def _check_iteration(self, op: Op) -> list[str]:
        c = op.value
        if len(c.history) != 1 or c.design.n != op.extra["n"] + 1:
            return [f"expected one new point, got {len(c.history)}"]
        h = c.history[0]
        problems = []
        if self.snake(self.world, c.design.points[-1]).value != h["response"]:
            problems.append(f"response does not re-evaluate to {h['response']}")
        if not h["certified_bound"] >= h["acq_value"]:
            problems.append("bound below the value")
        if not h["relative_gap"] <= self.gap + GAP_SLACK:
            problems.append(f"gap {h['relative_gap']}")
        if h["solver_status"] not in ("optimal", "gap_reached"):
            problems.append(f"status {h['solver_status']}")
        return problems

    def replays_matching(self, ops: list[Op]) -> tuple[int, int]:
        """How many replayed iterations chose the frozen campaign's point."""
        done = [op for op in ops if op.error is None and "iteration" in op.extra]
        same = sum(op.value.history[0]["point"] == self.chosen[op.extra["iteration"] - 1]["point"]
                   for op in done)
        return same, len(done)

    def check(self, op: Op) -> list[str]:
        if "campaigns" not in op.extra:
            return self._check_iteration(op)
        problems = []
        campaigns = op.extra["campaigns"]
        if len(campaigns) != 1:
            return [f"expected one quip campaign, saw {len(campaigns)}"]
        c = campaigns[0]
        rows = op.value.rows
        for method in self.methods:
            best = [r["best_so_far"] for r in rows if r["method"] == method]
            if len(best) != self.n_seq + 1:
                problems.append(f"{method}: {len(best)} rows, expected {self.n_seq + 1}")
            if any(b1 < b0 for b0, b1 in zip(best, best[1:])):
                problems.append(f"{method}: best-so-far decreases")
            if method == "quip" and best and best[-1] != float(np.max(c.responses)):
                problems.append("quip: final best-so-far is not the best response")
        if c.design.n != self.n_init + self.n_seq:
            problems.append(f"campaign has {c.design.n} points")
        for i, (p, y) in enumerate(zip(c.design.points, c.responses)):
            if self.snake(self.world, p).value != y:
                problems.append(f"response {i} does not re-evaluate to {y}")
        init = encoding.Design(c.design.points[: self.n_init])
        if self.min_distance(init) < self.q0:
            problems.append(f"initial design below the guaranteed distance q0={self.q0}")
        for h in c.history:
            if not h["certified_bound"] >= h["acq_value"]:
                problems.append(f"iteration {h['iteration']}: bound below the value")
            if not h["relative_gap"] <= self.gap + GAP_SLACK:
                problems.append(f"iteration {h['iteration']}: gap {h['relative_gap']}")
            if h["solver_status"] not in ("optimal", "gap_reached"):
                problems.append(f"iteration {h['iteration']}: {h['solver_status']}")
        return problems

    def deterministic(self, op: Op) -> dict:
        if "campaigns" not in op.extra:
            h = op.value.history[0]
            return {"label": op.label, "point": h["point"], "acq_value": h["acq_value"],
                    "status": h["solver_status"]}
        c = op.extra["campaigns"][0]
        return {
            "label": op.label,
            "history": [[h["point"], h["acq_value"], h["certified_bound"],
                         h["solver_status"], h["response"]] for h in c.history],
            "final_best": {r["method"]: r["best_so_far"] for r in op.value.rows
                           if r["iteration"] == self.n_seq},
        }

    def report(self, passes: list[Pass]) -> dict:
        same, total = self.replays_matching([op for p in passes for op in p.ops])
        return {"replays_as_frozen": ("of " + str(total), same)}

    def final_ops(self) -> list[Op]:
        return []


class AcqCertifyD12:
    """Gap-0 ``optimize_acquisition`` for UCB and ALM on the frozen d=12
    snake models of refs.json. A pass runs every certified solve once, in a
    seeded order; the first pass also runs the limited ones. Each solve
    rebuilds its model from the stored literals with ``build_model``."""

    name = "acq-certify-d12"
    op_name = "solve"  # what one latency sample is
    min_passes = 5  # 14 certified solves per pass: the p80 has 14 samples beyond it
    tail_pct = 80

    def __init__(self, refs: dict, seed: int):
        self.seed = seed
        acq = refs["acq"]
        self.limited_s = acq["limited_time_limit"]
        self.safety_s = acq["safety_time_limit"]
        self.predict_batch = gp.predict_batch
        self.solves = []
        for m in acq["models"]:
            D = encoding.design_from_array(np.asarray(m["points"]), acq["M"])
            f = np.asarray(m["responses"], dtype=float)
            params = gp.KernelParams(np.asarray(m["theta"]), m["mu"], m["tau2"])
            for s in m["solves"]:
                self.solves.append((m["name"], D, f, params, m["nugget"], s))
        self.small = self._small_model(seed)

    def _small_model(self, seed: int):
        """A seeded d=6 snake model small enough to enumerate (5**6 points)."""
        rng = np.random.default_rng(_seed(seed, 0xE1))
        d, M = 6, 5
        X = np.unique(rng.integers(1, M + 1, size=(16, d)), axis=0)
        D = encoding.design_from_array(X, M)
        world = simulators.default_snake()
        f = np.array([simulators.snake_reward(world, p).value for p in D.points])
        params = gp.KernelParams(rng.uniform(0.1, 2.0, size=d), float(f.mean()),
                                 float(max(f.var(), 1.0)))
        return gp.build_model(D, f, params)

    def run_pass(self, k: int, probe) -> Pass:
        order = np.random.default_rng(_seed(self.seed, k)).permutation(len(self.solves))
        ops = []
        for i in order:
            name, D, f, params, nugget, s = self.solves[i]
            if s["class"] == "limited" and k > 0:
                continue
            limit = self.limited_s if s["class"] == "limited" else self.safety_s
            spec = acquisition.AcquisitionSpec(s["kind"], gap_tolerance=0.0,
                                               time_limit=limit)

            def solve():
                model = gp.build_model(D, f, params, nugget)
                return model, acquisition.optimize_acquisition(model, spec)

            op = Op(f"{name}/{s['kind']}", s["class"], extra={"ref": s, "spec": spec})
            ops.append(run_op(probe, op, solve, lambda out: out[1].status == "time_limit"))
        return _summary(ops)

    def _reevaluates(self, model, spec, rep) -> bool:
        """Whether the objective at the reported point equals the reported value.

        At or near a design point the variance tau2*(1 - g'W g) is a difference
        of nearly equal numbers, so the point alone and the point inside a
        batch can differ there by a few n*eps*tau2, and UCB takes its root."""
        mean, var = self.predict_batch(model, np.asarray([rep.best_point.levels]))
        slack = REL_TOL * model.params.tau2
        if spec.kind == "alm":
            value, tol = float(var[0]), slack
        else:
            value = float(mean[0] + spec.lam * np.sqrt(var[0]))
            tol = spec.lam * np.sqrt(slack)
        return abs(value - rep.best_value) <= REL_TOL * abs(rep.best_value) + tol

    def check(self, op: Op) -> list[str]:
        model, rep = op.value
        ref, spec = op.extra["ref"], op.extra["spec"]
        problems = []
        if not rep.certified_bound >= rep.best_value:
            problems.append(f"bound {rep.certified_bound} below value {rep.best_value}")
        if (rep.best_point.d, rep.best_point.M) != (model.design.d, model.design.M):
            problems.append("best point has the wrong shape")
        elif not self._reevaluates(model, spec, rep):
            problems.append("best value does not re-evaluate at the best point")
        if op.klass == "certified" and rep.status != "optimal":
            problems.append(f"expected a certificate, got {rep.status}")
        if rep.status not in ("optimal", "time_limit"):
            problems.append(f"unexpected status {rep.status} at gap 0")
        if "ref_value" in ref:
            best = ref["ref_value"]
            if rep.status == "optimal" and not _close(rep.best_value, best):
                problems.append(f"optimum {rep.best_value!r} != reference {best!r}")
            if rep.best_value > best + REL_TOL * max(abs(best), 1.0):
                problems.append("incumbent exceeds the reference optimum")
            if rep.certified_bound < best - REL_TOL * max(abs(best), 1.0):
                problems.append("certified bound below the reference optimum")
        return problems

    def deterministic(self, op: Op) -> dict:
        model, rep = op.value
        if op.limited:
            return {"label": op.label, "status": rep.status}
        return {"label": op.label, "status": rep.status, "value": rep.best_value,
                "point": list(rep.best_point.levels), "nodes": rep.nodes}

    def trace_pass(self, probe) -> Pass:
        return self.run_pass(0, probe)

    def report(self, passes: list[Pass]) -> dict:
        out = {}
        for kind in ("ucb", "alm"):
            out[f"{kind}_suite_s"] = ("s", _median([
                sum(op.seconds for op in p.ops
                    if op.klass == "certified" and op.extra["spec"].kind == kind)
                for p in passes]))
        return out

    def final_ops(self) -> list[Op]:
        """Gap-0 branch and bound against full enumeration on the small model."""
        ops = []
        for kind in ("ucb", "alm"):
            spec = acquisition.AcquisitionSpec(kind, gap_tolerance=0.0)

            def both():
                rep = acquisition.optimize_acquisition(self.small, spec)
                _, best = acquisition.enumerate_acquisition(self.small, spec)
                return rep, best

            op = run_op(None, Op(f"enumeration check/{kind}", "check"), both,
                        lambda out: False)
            if op.error is None:
                rep, best = op.value
                if rep.status != "optimal" or not _close(rep.best_value, best):
                    op.error = (f"branch and bound {rep.status} {rep.best_value!r} "
                                f"!= enumeration {best!r}")
            ops.append(op)
        return ops


class MaximinCertify:
    """``optimize_maximin`` on the fixed instance list of refs.json. A pass
    runs every certified instance once, in a seeded order; the first pass
    also runs the limited ones.

    Limited instances get a search seed drawn from the workload seed and the
    pass, so whether their witness search stalls varies as it does for
    users. Certified instances always use search seed 0: every seed tried
    certifies them, but the randomized first phase moves a single instance's
    time by up to a factor of two between seeds, which would spread the
    per-instance latencies of different runs wider than their bound."""

    name = "maximin-certify"
    op_name = "instance"  # what one latency sample is
    min_passes = 4  # 11 certified instances per pass: the p75 has 11 beyond it
    tail_pct = 75

    def __init__(self, refs: dict, seed: int):
        self.seed = seed
        self.safety_s = refs["maximin"]["safety_time_limit"]
        self.instances = refs["maximin"]["instances"]
        self.min_distance = encoding.min_pairwise_distance

    def run_pass(self, k: int, probe) -> Pass:
        order = np.random.default_rng(_seed(self.seed, k)).permutation(len(self.instances))
        ops = []
        for i in order:
            inst = self.instances[i]
            if inst["class"] == "limited" and k > 0:
                continue
            n, d, M = inst["n"], inst["d"], inst["M"]
            limit = inst["time_limit"] or self.safety_s
            lib_seed = 0 if inst["class"] == "certified" else _seed(self.seed, k, int(i)) % 2**31
            op = Op(f"({n},{d},{M})", inst["class"], extra={"inst": inst})
            ops.append(run_op(
                probe, op,
                lambda: maximin.optimize_maximin(n, d, M, time_limit=limit, seed=lib_seed),
                lambda res: not res.certified))
        return _summary(ops)

    def check(self, op: Op) -> list[str]:
        res, inst = op.value, op.extra["inst"]
        problems = []
        if res.q_star > inst["true_q"]:
            problems.append(f"q*={res.q_star} exceeds the true q*={inst['true_q']}")
        if res.certified and res.q_star != inst["true_q"]:
            problems.append(f"certified q*={res.q_star} but the true q* is {inst['true_q']}")
        if op.klass == "certified" and not res.certified:
            problems.append("expected a certificate")
        D = res.design
        if (D.n, D.d, D.M) != (inst["n"], inst["d"], inst["M"]):
            problems.append(f"witness has shape ({D.n},{D.d},{D.M})")
        elif self.min_distance(D) < res.q_star:
            problems.append(f"witness distance {self.min_distance(D)} < q*={res.q_star}")
        return problems

    def deterministic(self, op: Op) -> dict:
        res = op.value
        return {
            "label": op.label, "q_star": res.q_star, "certified": res.certified,
            "solves": [[s.q, s.status, s.nodes_explored if s.status != "time_limit" else None]
                       for s in res.trace],
        }

    def trace_pass(self, probe) -> Pass:
        return self.run_pass(0, probe)

    def report(self, passes: list[Pass]) -> dict:
        return {"design_s": ("s", _median([p.pass_s for p in passes]))}

    def final_ops(self) -> list[Op]:
        return []


def _median(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


WORKLOADS = {w.name: w for w in (BenchSnakeUcb, AcqCertifyD12, MaximinCertify)}
