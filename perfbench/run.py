"""QuIP benchmark: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all       # each workload in a fresh process

Run it from the root of a checkout; it imports the library from ``src/``
there. The workloads are ``bench-snake-ucb``, ``acq-certify-d12`` and
``maximin-certify`` (see perfbench/README.md). With ``--trace 0`` a run
repeats passes of its workload, with no wrappers installed, times a fixed
reference computation around each operation (perfbench/reference.py), and
reports the end-to-end metrics. With ``--trace 1`` it runs pairs of the workload's
traced unit on the same inputs, first untraced and then traced, reports the
per-layer metrics and the tracing overhead, and writes its spans to
``.bench_out/``.

Every operation's output is checked after its pass. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: default OpenBLAS threading on a 2-core machine
# was slower and about twice as spread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
NAMES = ("bench-snake-ucb", "acq-certify-d12", "maximin-certify")
SETUP_CHILDREN = 2  # extra set-ups, each in a fresh process, for the setup_s median


def set_up(name: str, seed: int):
    """Import the library, load the frozen references and make the inputs.

    Returns the workload and the seconds this took."""
    t0 = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "quip", "__init__.py")):
        raise SystemExit(f"no library source at {SRC}: run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import quip
    from workloads import WORKLOADS

    if os.path.dirname(os.path.abspath(quip.__file__)) != os.path.join(SRC, "quip"):
        raise SystemExit(f"imported quip from {quip.__file__}, not from {SRC}")
    with open(REFS) as fh:
        refs = json.load(fh)
    workload = WORKLOADS[name](refs, seed)
    return workload, time.perf_counter() - t0


def child_setup_seconds(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: float) -> float:
    import numpy as np

    return float(np.percentile(values, pct)) if values else 0.0


def measure(workload, seconds: float, tracer):
    """Run passes until the next one would end after `seconds`.

    Untraced runs give pass k inputs made from (seed, k). Traced runs repeat
    the workload's traced unit on the same inputs, so their counts are
    identical from pass to pass."""
    from reference import Reference

    untraced, traced, walls = [], [], []
    reference = Reference() if tracer is None else None
    t_start = time.perf_counter()
    min_passes = 1 if tracer is not None else workload.min_passes
    while True:
        k = len(untraced)
        if tracer is None:
            untraced.append(workload.run_pass(k, reference))
        else:
            t0 = time.perf_counter()
            untraced.append(workload.trace_pass(None))
            untraced_wall = time.perf_counter() - t0
            tracer.install()
            try:
                tracer.begin_pass(f"{workload.name}/seed{workload.seed}/pass{k}")
                traced.append(workload.trace_pass(tracer))
                walls.append((untraced_wall, tracer.end_pass()))
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - t_start
        if len(untraced) >= min_passes and elapsed * (1 + 1 / len(untraced)) > seconds:
            return untraced, traced, walls


def check_all(workload, passes) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    ops = [op for p in passes for op in p.ops] + workload.final_ops()
    for op in ops:
        attempted += 1
        problems = [op.error] if op.error else []
        if not problems and op.klass != "check":
            problems = workload.check(op)
        if problems:
            failed += 1
            messages.extend(f"{op.label}: {m}" for m in problems)
    return attempted, failed, messages


def pass_ref(passes) -> float:
    """A pass in reference units: the sum, over the operations every pass
    repeats, of each one's median time over the reference time around it."""
    ratios: dict[str, list[float]] = {}
    for p in passes:
        for op in p.ops:
            if op.klass == "certified" and op.error is None:
                ratios.setdefault(op.label, []).append(op.seconds / op.ref_s)
    return float(sum(statistics.median(r) for r in ratios.values()))


def end_to_end(workload, passes, setup_samples) -> tuple[dict, list[str]]:
    samples = [s for p in passes for s in p.samples]
    pct = workload.tail_pct  # keeps at least 10 samples beyond it at min_passes
    tail = percentile(samples, pct)
    beyond = sum(s > tail for s in samples)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "pass_ref": (pass_ref(passes), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    op = workload.op_name
    lines = [
        f"{workload.name}: {len(passes)} passes, {len(samples)} {op} samples",
        f"  setup_s            {metrics['setup_s'][0]:.4f} s "
        f"(median of {len(setup_samples)} set-ups)",
    ]
    refs = [o.ref_s for p in passes for o in p.ops if o.error is None]
    lines.append(f"  pass_ref           {metrics['pass_ref'][0]:.2f} ref "
                 f"(each {op} at its median of {len(passes)} passes; "
                 f"reference median {1000 * statistics.median(refs):.2f} ms)")
    # Printed, not bounded: their spread between runs exceeds any allowed bound.
    lines.append(f"  pass_s             {statistics.median(p.pass_s for p in passes):.4f} s "
                 "(median pass)")
    for name, (unit, value) in workload.report(passes).items():
        lines.append(f"  {name:<18} {value:.4f} {unit}" if isinstance(value, float)
                     else f"  {name:<18} {value} {unit}")
    lines += [
        f"  {op + '_p50_s':<18} {percentile(samples, 50):.4f} s",
        f"  {op + '_tail_s':<18} {tail:.4f} s "
        f"(p{pct} of {len(samples)} samples, {beyond} beyond it)",
        f"  peak_rss_mb        {metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    # the first pass is the one that runs every operation of the workload once
    ops = [op for op in passes[0].ops if op.error is None]
    stopped = sorted(op.label for op in ops if op.limited)
    lines.append(f"  uncertified_frac   {len(stopped) / max(len(ops), 1):.4f} "
                 f"({len(stopped)} of {len(ops)} in the first pass ended at a time limit"
                 + "".join(f"; {name}" for name in stopped) + ")")
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the seconds it took and exit")
    ap.add_argument("--det-out", help="write the run's deterministic fields here (JSON)")
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    workload, setup_main = set_up(args.workload, args.seed)
    if args.setup_only:
        print(setup_main)
        return 0

    tracer = None
    if args.trace:
        from layers import per_layer
        from tracer import Tracer

        tracer = Tracer()
    untraced, traced, walls = measure(workload, args.seconds, tracer)
    attempted, failed, messages = check_all(workload, untraced + traced)

    if tracer is None:
        setup_samples = [setup_main] + [
            child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_CHILDREN)
        ]
        metrics, lines = end_to_end(workload, untraced, setup_samples)
    else:
        metrics, lines, count_problems = per_layer(workload, tracer, traced, walls)
        attempted += 1
        if count_problems:
            failed += 1
            messages.extend(count_problems)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload.name}.json")
        tracer.write(path)
        lines.append(f"  spans written to {os.path.relpath(path, ROOT)}")

    if args.det_out:
        first = traced[0] if traced else untraced[0]
        record = {
            "workload": workload.name, "seed": args.seed,
            "ops": [workload.deterministic(op) for op in first.ops if op.error is None],
            "counts": dict(sorted(tracer.exact_counts[0].items())) if tracer else None,
        }
        with open(args.det_out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)

    print("\n".join(lines))
    print(f"  failed_frac        {failed / attempted:.4f} ({failed} of {attempted} "
          "operations raised or failed a check)")
    for m in messages[:20]:
        print(f"CHECK FAILED {m}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process, with the same seed and length."""
    status = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            continue
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return status


if __name__ == "__main__":
    sys.exit(main())
