#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

Usage (from the repository root):

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records `perfbench/run.py --out FILE` appends, one
per run (collect ten or more runs per workload, each with its own
--seed). For every workload and end-to-end metric of BENCHMARK.json the
tool prints each set's median and quartiles, the spread (interquartile
range over median) and a verdict:

    agree       medians within the metric's bound of each other
    better      the change's median is better by more than the bound
    worse       the change's median is worse by more than the bound
    unresolved  a set's spread exceeds the bound, so the runs cannot
                tell (unless every change run beats, or loses to, every
                base run)

Traced records (--trace 1) are ignored. The exit status is 1 when any
pair is "worse", else 0.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for name, metric in record["metrics"].items():
                runs.setdefault((record["workload"], name), []).append(
                    metric["value"])
    return runs


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(base, change, spec):
    bound, lower_better = spec["bound"], spec["better"] == "lower"
    b_med, _, _, b_spread = summary(base)
    c_med, _, _, c_spread = summary(change)
    sign = 1.0 if lower_better else -1.0
    if max(b_spread, c_spread) > bound:
        if all(sign * (c - b) < 0 for c in change for b in base):
            return "better"
        if all(sign * (c - b) > 0 for c in change for b in base):
            return "worse"
        return "unresolved"
    delta = sign * (c_med - b_med) / b_med
    if delta > bound:
        return "worse"
    if delta < -bound:
        return "better"
    return "agree"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, change = load(sys.argv[1]), load(sys.argv[2])
    workloads = sorted({w for w, _ in base} | {w for w, _ in change})
    print("%-14s %-15s %5s %11s %21s %6s %11s %21s %6s  %s" % (
        "workload", "metric", "bound", "base.med", "base.q1..q3", "sprd",
        "chg.med", "chg.q1..q3", "sprd", "verdict"))
    any_worse = False
    for workload in workloads:
        for name, spec in specs.items():
            key = (workload, name)
            if key not in base or key not in change:
                print("%-14s %-15s missing in one set" % key)
                continue
            b, c = summary(base[key]), summary(change[key])
            v = verdict(base[key], change[key], spec)
            any_worse |= v == "worse"
            print("%-14s %-15s %5.2f %11.5g %10.5g..%-9.5g %6.3f "
                  "%11.5g %10.5g..%-9.5g %6.3f  %s (n=%d/%d)" % (
                      workload, name, spec["bound"], b[0], b[1], b[2], b[3],
                      c[0], c[1], c[2], c[3], v, len(base[key]),
                      len(change[key])))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
