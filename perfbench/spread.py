"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload http-serving --seeds 1-10 \\
        --seconds 12

For every metric it prints the median, the quartiles and the spread
``(Q3 - Q1) / median`` — the figure ``BENCHMARK.json``'s bounds are
set against — plus the failed share of attempted operations.  Runs are
sequential, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    values = {}
    units = {}
    shares = []
    for seed in _seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if out.returncode != 0:
            print(out.stdout[-3000:], out.stderr[-3000:], sep="\n")
            return out.returncode
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"    {line}")
        shares.append(result["failed"] / result["attempted"])
        line = [f"seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
            line.append(f"{name}={metric['value']:.4g}")
        print(" ".join(line), flush=True)
    print(f"failed share per run: {sorted(set(shares))}")
    print(f"{'metric':<42} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8}")
    for name, series in values.items():
        mid = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = mid
        spread = (q3 - q1) / mid if mid else float("nan")
        print(f"{name:<42} {mid:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
