"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload batch-multisource --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also prints each layer's self time and writes its spans to
``.perfbench_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space of one run (shard stores, server logs), removed when the
#: run ends; per process, so two runs never delete each other's files.
WORK_DIR = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("batch-multisource", "http-serving", "live-updates")

#: End-to-end metrics (name -> unit), reported by every workload; the
#: per-layer ones are ``layers.PER_LAYER``.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "column_ms": "ms", "topk_ms": "ms"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(
            f"error: the program's sources are not at {source}; run the "
            "benchmark from the root of a full checkout"
        )
    sys.path.insert(0, source)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [source] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import repro  # noqa: F401  (fail here, before any work, if it is broken)


def _overhead_lines(workload: str, seed: int, traced: dict) -> list:
    """Traced minus untraced end-to-end figures, against the last untraced
    run of the same workload and seed in this checkout (if there is one)."""
    path = os.path.join(OUT_DIR, f"untraced-{workload}-seed{seed}.json")
    try:
        with open(path) as handle:
            untraced = json.load(handle)["figures"]
    except (OSError, ValueError, KeyError):
        return ["tracing overhead: no untraced run of this workload and seed to compare with"]
    lines = ["tracing overhead (traced - untraced, same seed):"]
    for name, (after, unit) in traced.items():
        if name in untraced:
            before = untraced[name]
            share = (after - before) / before * 100.0 if before else float("nan")
            lines.append(f"  {name:<24} {before:>12.4f} -> {after:>12.4f} {unit:<10} ({share:+.1f}%)")
    return lines


#: One BLAS thread per process.  The in-process workloads already run
#: ``nproc`` threads of their own (reader + updater) or share the box
#: with worker processes, and a second BLAS thread made the batched
#: GEMM bimodal (it only ran at full speed when the other core was
#: idle).  Set before numpy is first imported; the server process and
#: its workers inherit it.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    for name in BLAS_ENV:
        os.environ[name] = "1"
    _import_program()
    sys.path.insert(0, HERE)
    import harness
    from layers import PER_LAYER

    os.makedirs(WORK_DIR)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = harness.Tracer(enabled=bool(args.trace))
    started = time.perf_counter()
    try:
        if args.workload == "batch-multisource":
            import wl_batch as workload
        elif args.workload == "http-serving":
            import wl_http as workload
        else:
            import wl_live as workload
        result = workload.run(args.seed, args.seconds, tracer, WORK_DIR)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    wall = time.perf_counter() - started

    metrics = result["metrics"]
    # end-to-end metrics plus the figures that are printed but not gated
    figures = {name: metrics[name] for name in END_TO_END if name in metrics}
    figures.update(result.get("figures", {}))
    for line in result.get("report", []):
        print(line)
    if result.get("figures"):
        print("printed, not gated: " + ", ".join(
            f"{name} {value:.4g} {unit}" for name, (value, unit) in result["figures"].items()))
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(f"run wall time {wall:.1f} s")
    if args.trace:
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(trace_path)
        print(f"per-layer self time ({len(tracer.spans)} spans, written to {trace_path}):")
        print(tracer.render_table())
        print("per-layer metrics:")
        for name, (value, unit) in metrics.items():
            if name not in END_TO_END:
                print(f"  {name:<42} {value:>14.6g} {unit}")
        for line in _overhead_lines(args.workload, args.seed, figures):
            print(line)
    wanted = PER_LAYER if args.trace else END_TO_END
    selected = {}
    for name, unit in wanted.items():
        value, got_unit = metrics.get(name, (float("nan"), unit))
        if got_unit != unit or not math.isfinite(value):
            raise SystemExit(f"error: metric {name} = {value} {got_unit}, want a finite value in {unit}")
        selected[name] = {"value": float(value), "unit": unit}
    summary = {
        "correct": not result["failures"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": selected,
    }
    if not args.trace:
        with open(os.path.join(OUT_DIR, f"untraced-{args.workload}-seed{args.seed}.json"), "w") as handle:
            json.dump({"figures": {name: value for name, (value, _) in figures.items()}}, handle)
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
