"""Command-line entry point.

Subcommands: bound, design, fit, suggest, sequential, simulate, bench,
oracle. All randomness is flag-seeded; every JSON output carries a
schema_version field. Exit codes: 0 success / certified optimum, 2
time-limit incumbent, 1 error (including usage errors).
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import acquisition, bench, bounds, encoding, gp, maximin, sequential, simulators

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TIME_LIMIT = 2


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _cmd_bound(args) -> int:
    n, d, M = args.n, args.d, args.M
    encoding.write_json(
        {
            "n": n,
            "d": d,
            "M": M,
            "q0": bounds.q0(n, d, M),
            "gilbert_q": bounds.gilbert_q(n, d, M),
            # the maximin ascent's ceiling: q* lies in [q0, q_upper]
            "q_upper": max(
                (q for q in range(1, d + 1) if bounds.code_size_bound(d, q, M) >= n), default=0
            ),
        }
    )
    return EXIT_OK


def _cmd_design(args) -> int:
    result = maximin.optimize_maximin(
        args.n, args.d, args.M, time_limit=args.time_limit, seed=args.seed
    )
    if args.out:
        encoding.save_design(result.design, args.out)
    encoding.write_json(
        {
            "n": args.n,
            "d": args.d,
            "M": args.M,
            "q_star": result.q_star,
            "certified": result.certified,
            "certificate": result.certificate,
            "nodes": sum(r.nodes_explored for r in result.trace),
            "solves": [
                [r.q, r.status, r.phase, r.nodes_explored] for r in result.trace
            ],
            "elapsed": sum(r.elapsed for r in result.trace),
            "design": result.design.as_array().tolist(),
        }
    )
    return EXIT_OK if result.certified else EXIT_TIME_LIMIT


def _read_responses(path) -> np.ndarray:
    with open(path) as fh:
        vals = [float(v) for row in csv.reader(fh) for v in row if v.strip()]
    return np.asarray(vals)


def _cmd_fit(args) -> int:
    D = encoding.load_design(args.design, M=args.M)
    f = _read_responses(args.responses)
    model = gp.fit_mle(D, f, gp.FitConfig(seed=args.seed))
    if args.out:
        gp.save_model(model, args.out)
    encoding.write_json(
        {
            "n": D.n,
            "d": D.d,
            "M": D.M,
            "theta": [float(v) for v in model.params.theta],
            "mu": model.params.mu,
            "tau2": model.params.tau2,
            "is_constant": model.is_constant,
        }
    )
    return EXIT_OK


def _cmd_suggest(args) -> int:
    model = gp.load_model(args.model)
    spec = acquisition.AcquisitionSpec(
        args.acq, args.lam, args.gap, args.time_limit
    )
    rep = acquisition.optimize_acquisition(model, spec)
    encoding.write_json(
        {
            "point": list(rep.best_point.levels),
            "value": rep.best_value,
            "certified_bound": rep.certified_bound,
            "relative_gap": rep.relative_gap,
            "status": rep.status,
            "nodes": rep.nodes,
            "elapsed": rep.elapsed,
        }
    )
    return EXIT_TIME_LIMIT if rep.status == acquisition.STATUS_TIME_LIMIT else EXIT_OK


def _csv_table_simulator(path, M):
    """(d, M, lookup) for a table of `levels..., response` rows. M defaults
    to the table's largest level (at least 2). Rows of unequal length and
    repeated points with different responses are rejected here; looking up
    a point the table lacks raises ValueError."""
    table: dict[tuple[int, ...], float] = {}
    first_line: dict[tuple[int, ...], int] = {}
    width = None
    with open(path) as fh:
        for line, row in enumerate(csv.reader(fh), 1):
            if not row:
                continue
            width = width or len(row)
            if len(row) != width:
                raise ValueError(
                    f"row {line} of lookup table {path} has {len(row)} "
                    f"fields, expected {width}"
                )
            levels, value = tuple(int(v) for v in row[:-1]), float(row[-1])
            if levels in table and table[levels] != value:
                raise ValueError(
                    f"rows {first_line[levels]} and {line} of lookup table "
                    f"{path} give point {list(levels)} different responses"
                )
            table[levels] = value
            first_line.setdefault(levels, line)
    if not table:
        raise ValueError(f"no rows in lookup table {path}")
    d = width - 1
    level_max = max(max(levels) for levels in table)
    if M is None:
        M = max(level_max, 2)
    elif M < level_max:
        raise ValueError(f"--M {M} is below level {level_max} in table {path}")

    def sim(x):
        if x.levels not in table:
            raise ValueError(f"point {list(x.levels)} is not in lookup table {path}")
        return table[x.levels]

    return d, M, sim


def _simulator_for(args):
    """(d, M, objective) with costs negated to the maximization sign."""
    if args.simulator == "csv":
        if not args.table:
            raise ValueError("--table is required for the csv simulator")
        return _csv_table_simulator(args.table, args.M)
    return bench.problem_objective(args.simulator, args.d)


def _cmd_sequential(args) -> int:
    d, M, objective = _simulator_for(args)
    if args.init_design:
        init = encoding.load_design(args.init_design, M=M)  # checks M
        if init.d != d:
            raise ValueError(
                f"initial design {args.init_design} has d={init.d}, but the "
                f"{args.simulator} simulator's lattice has d={d}"
            )
    else:
        init = bench.initial_design(args.n_init, d, M, args.seed)
    f0 = np.array([objective(p) for p in init.points])
    spec = acquisition.AcquisitionSpec(args.acq, args.lam, args.gap, args.time_limit)
    campaign = sequential.run_campaign(
        init, f0, objective, spec, args.n_seq, seed=args.seed
    )
    if args.out:
        sequential.save_campaign(campaign, args.out)
    point, value = sequential.best_so_far(campaign)
    encoding.write_json(
        {
            "n_total": campaign.design.n,
            "iterations": len(campaign.history),
            "nodes": sum(h["nodes"] for h in campaign.history),
            "best_point": list(point.levels),
            "best_value": value,
        }
    )
    return EXIT_OK


def _parse_path(text: str) -> list[int]:
    return [int(v) for v in text.replace(" ", "").split(",") if v]


def _cmd_simulate(args) -> int:
    p = simulators.PROBLEMS[args.problem]
    config = p.load_config(args.config) if args.config else p.default_config()
    res = p.simulate(config, encoding.Point(tuple(_parse_path(args.path)), p.M))
    encoding.write_json(
        {
            "problem": args.problem,
            "value": res.value,
            "trace": [dict(t, position=list(t["position"])) for t in res.trace],
        }
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    plan = bench.load_plan(args.plan)
    report = bench.run_bench(plan)
    bench.write_report(report, args.out)
    encoding.write_json(
        {
            "rows": len(report.rows),
            "out": args.out,
            "aggregate": list(report.summary),
        }
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.kind == "maximin":
        q_star, design = maximin.brute_force_maximin(args.n, args.d, args.M)
        encoding.write_json(
            {
                "kind": "maximin",
                "q_star": q_star,
                "design": design.as_array().tolist(),
            }
        )
    else:
        model = gp.load_model(args.model)
        spec = acquisition.AcquisitionSpec(args.acq, args.lam, 0.0)
        point, value = acquisition.enumerate_acquisition(model, spec)
        encoding.write_json(
            {
                "kind": "acquisition",
                "point": list(point.levels),
                "value": value,
            }
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="quip", description="Exact designs and sequential "
                "acquisition over categorical lattices.")
    sub = p.add_subparsers(dest="command", required=True)

    # flags shared between subcommands, each defined once
    lattice = argparse.ArgumentParser(add_help=False)
    for flag in ("--n", "--d", "--M"):
        lattice.add_argument(flag, type=int, required=True)
    acq = argparse.ArgumentParser(add_help=False)
    acq.add_argument("--acq", choices=["alm", "ucb"], required=True)
    acq.add_argument("--lambda", dest="lam", type=float,
                     default=acquisition.DEFAULT_LAMBDA)
    time_limit = argparse.ArgumentParser(add_help=False)
    time_limit.add_argument("--time-limit", type=float, default=None)
    limits = argparse.ArgumentParser(add_help=False, parents=[time_limit])
    limits.add_argument("--gap", type=float, default=acquisition.DEFAULT_GAP)

    b = sub.add_parser("bound", parents=[lattice], help="maximin distance bounds q0 and q_upper")
    b.set_defaults(func=_cmd_bound)

    d = sub.add_parser("design", parents=[lattice, time_limit],
                       help="exact maximin design")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", default=None)
    d.set_defaults(func=_cmd_design)

    f = sub.add_parser("fit", help="fit the GP surrogate by MLE")
    f.add_argument("--design", required=True)
    f.add_argument("--responses", required=True)
    f.add_argument("--M", type=int, default=None)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out", default=None)
    f.set_defaults(func=_cmd_fit)

    s = sub.add_parser("suggest", parents=[acq, limits],
                       help="optimize an acquisition criterion")
    s.add_argument("--model", required=True)
    s.set_defaults(func=_cmd_suggest)

    q = sub.add_parser("sequential", parents=[acq, limits],
                       help="run a sequential design campaign")
    q.add_argument("--simulator", choices=[*simulators.PROBLEMS, "csv"],
                   required=True)
    q.add_argument("--n-init", type=int, default=20)
    q.add_argument("--n-seq", type=int, default=30)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--d", type=int, default=None)
    q.add_argument("--M", type=int, default=None)
    q.add_argument("--table", default=None,
                   help="lookup table CSV for the csv simulator")
    q.add_argument("--init-design", default=None)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_sequential)

    m = sub.add_parser("simulate", help="evaluate one simulator path")
    m.add_argument("--problem", choices=list(simulators.PROBLEMS), required=True)
    m.add_argument("--config", default=None)
    m.add_argument("--path", required=True, help="comma-separated levels")
    m.set_defaults(func=_cmd_simulate)

    be = sub.add_parser("bench", help="run a benchmark plan")
    be.add_argument("--plan", required=True)
    be.add_argument("--out", required=True)
    be.set_defaults(func=_cmd_bench)

    o = sub.add_parser("oracle", help="brute-force testing oracles")
    osub = o.add_subparsers(dest="kind", required=True)
    om = osub.add_parser("maximin", parents=[lattice])
    om.set_defaults(func=_cmd_oracle)
    oa = osub.add_parser("acquisition", parents=[acq])
    oa.add_argument("--model", required=True)
    oa.set_defaults(func=_cmd_oracle)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
