#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every end-to-end metric of each workload this prints the median of
the runs, the distance between the first and third quartiles as a share
of the median (``statistics.quantiles(values, n=4)``), and the metric's
bound from BENCHMARK.json. With --twice each seed runs twice and every
deterministic ([d]) line of the summary must read the same both times.

Run from the repository root:

    python3 perfbench/spread.py --workload fattree_mixed --seeds 5
    python3 perfbench/spread.py --workload all --seeds 10
    python3 perfbench/spread.py --workload sim_clos --seeds 2 --trace 1 --twice
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

DET_LINE = re.compile(r"^\s+(\S+)\s+(.+?)\s+\S+\s+\[d\]")


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    det = {m.group(1): m.group(2) for m in map(DET_LINE.match, lines) if m}
    return result, det


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--twice", action="store_true", help="run each seed twice; [d] lines must match")
    ap.add_argument("--values", action="store_true", help="print every run's value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, det = run(bench, w, seed, args.trace)
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect result {result}")
            if args.twice:
                _, again = run(bench, w, seed, args.trace)
                differ = {k: (det[k], again.get(k)) for k in det if again.get(k) != det[k]}
                print(f"{w} seed {seed}: {len(det)} [d] lines, {len(differ)} differ {differ or ''}")
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        print(f"\n{w}: {args.seeds} seeds from {args.first_seed}, trace {args.trace}")
        for k, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(k)
            verdict = ""
            if bound is not None and k != "setup_s":
                worst = max(worst, spread / bound)
                verdict = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"  {k:<38} median {med:<14.6g} spread {spread:7.4f}  bound {bound}  {verdict}")
            if args.values:
                print("      " + " ".join(f"{v:.5g}" for v in vs))
    if args.trace == 0:
        print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
