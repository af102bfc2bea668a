#!/usr/bin/env python3
"""Build the hllc benchmark program and run its workloads.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE] [--perturb]
                             [--record]

Without --workload (or with "all") the three workloads run one after the
other and every end-to-end metric is printed with its unit. With one
workload, the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1), as listed in BENCHMARK.json. The exit status is
0 only when every simulated output matched its reference.

--out appends one JSON record per run (metrics with sample counts) for
perfbench/compare.py. --record stores the run's output digests as the
reference of that workload and seed in perfbench/reference/digests.txt.
--perturb alters one simulated output, to show the check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
REFERENCE = os.path.join(BENCH_DIR, "reference", "digests.txt")
WORKLOADS = ["forecast-grid", "serve-closed", "ingest-replay"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def jobs():
    return len(os.sched_getaffinity(0))


def build():
    """Configure (once) and build the program, daemon and client; return
    their paths."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(jobs())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return [os.path.join(BUILD_DIR, name)
            for name in ("perfbench", "perfbench_serve", "perfbench_loadgen")]


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]


def end_to_end(raw):
    """The end-to-end metrics of one raw report: name -> (value, n).

    serve-closed reports hllc_loadgen's p50/p99 per round (their medians
    are taken); the batch workloads report every operation's latency
    (pooled percentiles are taken)."""
    s = raw["samples"]
    if "op_ms" in s:
        ops = s["op_ms"]
        latency = {"latency_p50_ms": (percentile(ops, 50), len(ops)),
                   "latency_p99_ms": (percentile(ops, 99), len(ops))}
    else:
        latency = {k: (statistics.median(s[k]), len(s[k]))
                   for k in ("latency_p50_ms", "latency_p99_ms")}
    return dict(latency, **{
        "setup_s": (statistics.median(s["setup_s"]), len(s["setup_s"])),
        "wall_s": (statistics.median(s["wall_s"]), len(s["wall_s"])),
        "cpu_s": (statistics.median(s["cpu_s"]), len(s["cpu_s"])),
        "peak_rss_mb": (raw["scalars"]["peak_rss_mb"], 1),
        "ops_per_s": (statistics.median(s["ops_per_s"]),
                      len(s["ops_per_s"])),
    })


def run_bench(bins, workload, seed, seconds, trace, perturb, use_reference):
    # Relative to the root (the program's working directory), which keeps
    # the daemon's Unix socket path short.
    run_dir = os.path.join(os.path.relpath(RUN_DIR, ROOT),
                           "%s-%d" % (workload, os.getpid()))
    bench, serve_bin, loadgen_bin = bins
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--jobs", str(jobs()), "--run-dir", run_dir,
           "--serve-bin", serve_bin, "--loadgen-bin", loadgen_bin]
    if use_reference:
        cmd += ["--reference", REFERENCE]
    if perturb:
        cmd.append("--perturb")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: perfbench exited with %d" %
                           (workload, proc.returncode))
    return json.loads(lines[-1])


def record_reference(raw, seed):
    """Replace the reference digests of (workload, seed)."""
    keep = []
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            for line in f:
                fields = line.split()
                if (len(fields) == 4 and fields[0] == raw["workload"]
                        and fields[1] == str(seed)):
                    continue
                keep.append(line.rstrip("\n"))
    keep += ["%s %d %s %s" % (raw["workload"], seed, key, digest)
             for key, digest in sorted(raw["outputs"].items())]
    header = [l for l in keep if l.startswith("#")]
    body = sorted(l for l in keep if l and not l.startswith("#"))
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as f:
        f.write("\n".join(header + body) + "\n")


def has_reference(workload, seed):
    if not os.path.exists(REFERENCE):
        return False
    with open(REFERENCE) as f:
        return any(line.split()[:2] == [workload, str(seed)] for line in f)


def run_one(bins, args, workload):
    """Run one workload; return (result line, record for --out)."""
    e2e_spec, layer_spec = metric_specs()
    if not args.record and not has_reference(workload, args.seed):
        log("%s: no recorded digests for seed %d: outputs are checked run "
            "against run only%s" % (
                workload, args.seed,
                " (and against the in-process evaluator)"
                if workload == "serve-closed" else ""))
    raw = run_bench(bins, workload, args.seed, args.seconds, args.trace,
                    args.perturb, not args.record)
    if args.record:
        if raw["failed"]:
            raise RuntimeError("%s: not recording a failing run: %s" %
                               (workload, raw["failures"]))
        record_reference(raw, args.seed)
    for why in raw["failures"]:
        log("%s: FAILED: %s" % (workload, why))

    metrics, counts = {}, {}
    if args.trace:
        for m in layer_spec:
            metrics[m["name"]] = {"value": raw["layers"].get(m["name"], 0.0),
                                  "unit": m["unit"]}
    else:
        values = end_to_end(raw)
        for m in e2e_spec:
            value, n = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            counts[m["name"]] = n
    result = {"correct": raw["failed"] == 0,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    record = {"workload": workload, "seed": args.seed,
              "trace": bool(args.trace), "time": time.time(),
              "metrics": metrics, "samples": counts}
    return result, record


def print_table(workload, result, counts):
    print("# %s: %d operations, %d failed (fail_ratio %.6f)" % (
        workload, result["attempted"], result["failed"],
        result["failed"] / max(1, result["attempted"])))
    for name, m in result["metrics"].items():
        n = counts.get(name)
        print("  %-32s %14.6g %-6s%s" % (
            name, m["value"], m["unit"], "" if n is None else " (n=%d)" % n))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--out", help="append run records (JSON lines)")
    parser.add_argument("--perturb", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    try:
        bins = build()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        results = []
        for workload in workloads:
            result, record = run_one(bins, args, workload)
            results.append((workload, result, record))
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(record) + "\n")
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2

    for workload, result, record in results:
        print_table(workload, result, record["samples"])
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r, _ in results),
                 "attempted": sum(r["attempted"] for _, r, _ in results),
                 "failed": sum(r["failed"] for _, r, _ in results),
                 "metrics": {"%s.%s" % (w, k): v for w, r, _ in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
