"""Determinism self-test for the benchmark.

Runs each workload twice with the same seed, each time in a fresh traced
process, and requires identical deterministic fields: statuses, q*, chosen
points and values, node counts of every solve that did not stop at a
wall-clock limit, and the traced call counts. Exits 1 on any difference.

    python3 perfbench/selftest.py [--seed 5] [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(HERE), ".bench_out")
NAMES = ("bench-snake-ucb", "acq-certify-d12", "maximin-certify")


def deterministic_record(name: str, seed: int, tag: str) -> dict:
    path = os.path.join(OUT_DIR, f"det-{name}-{tag}.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", "1", "--det-out", path],
        check=True, stdout=subprocess.DEVNULL, timeout=300,
    )
    with open(path) as fh:
        return json.load(fh)


def differences(a, b, where="") -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        out = [f"{where}.{k}: only in one run" for k in sorted(set(a) ^ set(b))]
        for k in sorted(set(a) & set(b)):
            out += differences(a[k], b[k], f"{where}.{k}")
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in differences(x, y, f"{where}[{i}]")]
    return [] if a == b else [f"{where}: {a!r} != {b!r}"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--workload", choices=NAMES)
    args = ap.parse_args()
    os.makedirs(OUT_DIR, exist_ok=True)
    status = 0
    for name in [args.workload] if args.workload else NAMES:
        first = deterministic_record(name, args.seed, "a")
        second = deterministic_record(name, args.seed, "b")
        diff = differences(first, second)
        n_ops = len(first["ops"])
        print(f"{name}: {'identical' if not diff else f'{len(diff)} differences'} "
              f"({n_ops} operations, {sum(first['counts'].values())} counted calls)")
        for line in diff[:20]:
            print(f"  {line}")
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
