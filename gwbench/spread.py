#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

Runs every chosen workload once per seed and set (workloads interleaved
within a seed, so host noise lands on all of them alike) and reports,
per set and metric, the median over seeds and the spread: the distance
between the first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them. A spread must stay
within the metric's bound in BENCHMARK.json, and should stay below a
third of it.

    python3 gwbench/spread.py --seeds 10 --sets 2 --save gwbench/out/spread.json

With ``--sets 2`` every seed runs twice, once for set A and once for set
B, in alternating order (A then B for odd seeds, B then A for even
ones), so both sets see the same seeds and drift of the host falls on
both alike. Each median of set B is then checked against set A's: it
may not be worse by more than the bound. ``--save`` writes every run's
metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace, perturb=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if perturb:
        cmd += ["--perturb", perturb]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.time() - t0
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{p.stderr}")
    return result, elapsed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--save")
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = "AB"[:args.sets]

    values = {s: {w: {m: [] for m in metrics} for w in workloads} for s in sets}
    runs = []
    longest = 0.0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        order = sets if seed % 2 else sets[::-1]
        for w in workloads:
            for s in order:
                result, elapsed = run(w, seed, seconds, 0)
                longest = max(longest, elapsed)
                for m in metrics:
                    values[s][w][m].append(result["metrics"][m]["value"])
                runs.append({"set": s, "workload": w, "seed": seed, "elapsed_s": elapsed,
                             "metrics": {m: result["metrics"][m]["value"] for m in metrics}})
                print(f"seed {seed} {w} set {s}: {elapsed:.1f} s", file=sys.stderr, flush=True)

    ok = True
    print(f"{'set':3} {'workload':14} {'metric':18} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for w in workloads:
        for m, spec in metrics.items():
            for s in sets:
                med, sp = spread(values[s][w][m])
                verdict = []
                if sp > spec["bound"]:
                    verdict.append("SPREAD>bound")
                    ok = False
                elif sp >= spec["bound"] / 3:
                    verdict.append("SPREAD>bound/3")
                if s == "B":
                    prev = statistics.median(values["A"][w][m])
                    worse = (prev - med) / prev if spec["better"] == "higher" else (med - prev) / prev
                    verdict.append(f"B vs A {worse:+.3f}")
                    if worse > spec["bound"]:
                        verdict.append("WORSE>bound")
                        ok = False
                print(f"{s:3} {w:14} {m:18} {med:12.5g} {sp:8.4f} {spec['bound']:6.3f}  {' '.join(verdict)}")
    print(f"longest run: {longest:.1f} s")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
