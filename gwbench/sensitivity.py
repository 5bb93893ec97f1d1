#!/usr/bin/env python3
"""Sensitivity self-check: shows the benchmark sees known slowdowns.

Each group switches on one known slowdown through an existing public
setting of the program (no program edits; see ``--perturb`` in
src/workload.rs) and runs the baseline and the perturbed variant of the
same seed alternately. Each predicted metric must move the predicted
way, and the deterministic outputs named in the group must stay
identical.

An end-to-end metric must move by more than its bound in
BENCHMARK.json. A per-layer metric has no bound, so every perturbed run
must read worse than every baseline run. "report" rows carry no
prediction and are printed for reference.

    python3 gwbench/sensitivity.py [--reps 3] [--seconds 10]

The results go to gwbench/out/sensitivity.json.
"""

import argparse
import json
import os
import statistics
import sys

from spread import HERE, ROOT, run

# (workload, perturbation, trace mode, [(metric, prediction)],
#  deterministic end-to-end metrics that must not change)
GROUPS = [
    ("tcp_bulk", "digests", 0, [("fwd_gbps", "down"), ("cpu_ns_per_pkt", "report")],
     ["conversion_yield", "delivered_frac"]),
    ("tcp_egress", "flat_split", 1, [("split.ns_per_jumbo", "up")], []),
    ("tcp_egress", "flat_split", 0, [("fwd_gbps", "report"), ("cpu_ns_per_pkt", "report")],
     ["conversion_yield", "delivered_frac"]),
    ("tcp_bulk", "scalar_checksum", 1, [("checksum.gbps", "down")], []),
    ("tcp_bulk", "scalar_checksum", 0, [("fwd_gbps", "report"), ("cpu_ns_per_pkt", "report")],
     ["conversion_yield", "delivered_frac"]),
    ("internet_mix", "no_steer", 1, [("steer.mice_frac", "zero"), ("merge.ns_per_pkt", "up")], []),
    ("internet_mix", "no_steer", 0, [("fwd_gbps", "report"), ("conversion_yield", "report")],
     ["delivered_frac"]),
]


def moved(prediction, base, pert, bound):
    """Whether the perturbed runs moved as predicted."""
    if prediction == "zero":
        return all(v == 0 for v in pert) and all(v > 0 for v in base)
    sign = 1 if prediction == "up" else -1
    b, p = statistics.median(base), statistics.median(pert)
    if bound is not None:
        return sign * (p - b) / b > bound
    return min(sign * v for v in pert) > max(sign * v for v in base)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    rows, ok = [], True
    for workload, perturb, trace, predictions, fixed in GROUPS:
        names = [m for m, _ in predictions]
        base, pert = {m: [] for m in names}, {m: [] for m in names}
        base_fixed, pert_fixed = set(), set()
        for _ in range(args.reps):
            for side, values, fixed_seen in (("none", base, base_fixed), (perturb, pert, pert_fixed)):
                result, _ = run(workload, args.seed, args.seconds, trace, side)
                for m in names:
                    values[m].append(result["metrics"][m]["value"])
                fixed_seen.add(tuple(result["metrics"][m]["value"] for m in fixed))
        # The runs of one side agree with each other, and the perturbed
        # deterministic outputs equal the baseline's.
        same = len(base_fixed) == 1 and base_fixed == pert_fixed
        ok = ok and same
        for metric, prediction in predictions:
            b, p = statistics.median(base[metric]), statistics.median(pert[metric])
            change = (p - b) / b if b else 0.0
            verdict = "report"
            if prediction != "report":
                passed = moved(prediction, base[metric], pert[metric], bounds.get(metric))
                ok = ok and passed
                verdict = "PASS" if passed else "FAIL"
            rows.append({
                "workload": workload, "perturb": perturb, "metric": metric,
                "predicted": prediction, "bound": bounds.get(metric),
                "baseline": base[metric], "perturbed": pert[metric], "change": change,
                "verdict": verdict, "fixed_metrics": fixed, "fixed_identical": same,
            })
            print(f"{workload:13} {perturb:16} {metric:20} {b:12.5g} -> {p:12.5g} "
                  f"{change:+8.3f} {verdict:6} {'' if not fixed else ('identical' if same else 'CHANGED')}",
                  flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "sensitivity.json"), "w") as f:
        json.dump(rows, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
