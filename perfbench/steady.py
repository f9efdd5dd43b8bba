#!/usr/bin/env python3
"""Steadiness report: run each workload in fresh processes and print the
run-to-run spread of every metric.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seconds 20
    python3 perfbench/steady.py --runs 5 --workloads warm-revisit --trace 1 --fixed-seed 1

Round r runs every workload once with seed base+r (or the fixed seed),
in BENCHMARK.json order on even rounds and reversed on odd rounds, so a
slow stretch of the machine does not land on one workload only. For each
metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median. An end-to-end metric is flagged when
its spread exceeds a tenth, or a third of its bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--fixed-seed", type=int, default=None,
                    help="use this seed for every run (simulated counts must then repeat exactly)")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {w: [] for w in workloads}
    for r in range(args.runs):
        seed = args.fixed_seed if args.fixed_seed is not None else args.seed_base + r
        for w in (workloads if r % 2 == 0 else list(reversed(workloads))):
            res = run_once(w, seed, args.seconds, args.trace)
            results[w].append(res)
            print(f"run {r} {w} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)

    flagged = 0
    for w in workloads:
        runs = results[w]
        print(f"\n{w}: {len(runs)} runs, all correct: {all(x['correct'] for x in runs)}")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        for name in sorted(runs[0]["metrics"]):
            vals = [x["metrics"][name]["value"] for x in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if name in bounds:
                if spread > 0.1 or spread > bounds[name] / 3:
                    flag = "  <-- unsteady"
                    flagged += 1
            elif name not in bounds and len(set(vals)) > 1 and runs[0]["metrics"][name]["unit"] == "count" \
                    and args.fixed_seed is not None:
                flag = "  <-- count differs between runs"
                flagged += 1
            print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f}{flag}")
    print(f"\n{flagged} metric(s) flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
