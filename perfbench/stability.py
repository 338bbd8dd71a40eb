"""Runs the benchmark on several seeds and reports each end-to-end metric's
median, quartiles and spread (quartile distance over median) against its
bound in BENCHMARK.json.

    python3 perfbench/stability.py [--runs 10] [--workloads train ...] > summary.json

Runs one at a time, from the repository root, with the run length that
BENCHMARK.json fixes. A traced run per workload follows when --trace is
given. Progress goes to stderr, the summary as JSON to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, float]:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"context": json.loads(lines[-2]), "result": json.loads(lines[-1])}, wall


def check_names(bench: dict, result: dict, trace: int) -> list[str]:
    spec = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return [f"{k}: expected unit {spec.get(k)}, got {got.get(k)}"
            for k in sorted(set(spec) | set(got)) if spec.get(k) != got.get(k)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    problems = []
    for workload in names:
        values = {name: [] for name in bounds}
        walls, machine, attempted, failed = [], None, 0, 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out, wall = run_once(bench, workload, seed, 0)
            result = out["result"]
            machine = out["context"]["machine"]
            walls.append(wall)
            attempted += result["attempted"]
            failed += result["failed"]
            problems += [f"{workload} seed {seed}: {p}" for p in check_names(bench, result, 0)]
            if not result["correct"]:
                problems.append(f"{workload} seed {seed}: correct is false")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
        table = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(q2) if q2 else 0.0
            table[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bounds[name], "within_third": spread < bounds[name] / 3}
        entry = {"runs": args.runs, "attempted": attempted, "failed": failed,
                 "wall_s_max": max(walls), "wall_s_median": statistics.median(walls),
                 "machine": machine, "end_to_end": table}
        if args.trace:
            out, wall = run_once(bench, workload, args.first_seed, 1)
            problems += [f"{workload} trace: {p}" for p in check_names(bench, out["result"], 1)]
            entry["traced"] = {"seed": args.first_seed, "wall_s": wall,
                               "per_layer": {k: v["value"]
                                             for k, v in out["result"]["metrics"].items()}}
        summary["workloads"][workload] = entry
    summary["problems"] = problems
    print(json.dumps(summary, indent=1))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
