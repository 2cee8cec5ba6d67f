#!/usr/bin/env python3
"""End-to-end pypmd request benchmark: build, run, and measure steadiness.

One run (what BENCHMARK.json names):

    python3 e2ebench/run.py --workload zoo-greedy --seed 1 --seconds 30 --trace 0

builds the benchmark from this source tree into .bench_build (or
$CARGO_TARGET_DIR when set), runs one workload and passes its output
through; the last line is the JSON result.

Steadiness check (two interleaved sets of runs, same seeds in both):

    python3 e2ebench/run.py spread [--runs 10] [--seconds S] [--workloads a,b]

runs the workloads of BENCHMARK.json for its run_seconds unless told
otherwise, with seeds 1..runs in both sets, and prints, per workload and
end-to-end metric, each set's median and spread (interquartile range over
median) and the drift between the two medians (signed so that + is worse).
A metric is OVER when either spread or the drift's size exceeds its bound
in BENCHMARK.json; setup_s is held to its bound like every other metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pypm sources next to e2ebench/ (expected src/CMakeLists.txt)")
    out = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(out):
        out = os.path.join(ROOT, out)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "e2ebench", "-j4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "e2ebench")


def run_once(binary, workload, seed, seconds, trace):
    """One run; returns (notes, result dict)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=175)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail("run failed: %s seed %s (exit %d)" %
             (workload, seed, proc.returncode))
    return lines[:-1], json.loads(lines[-1])


def spec_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def spread(args):
    binary = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = range(1, args.runs + 1)
    # sets[w][s] = list of result dicts, one per seed, in seed order
    sets = {w: ([], []) for w in workloads}
    for seed in seeds:
        for w in workloads:
            for s in (0, 1):
                notes, res = run_once(binary, w, seed, args.seconds, 0)
                sets[w][s].append(res)
                print("%s seed %d set %s: %s" % (w, seed, "AB"[s],
                      notes[-1] if notes else ""), file=sys.stderr)
    worst = 0.0
    for w in workloads:
        print("\n%s (seeds 1-%d)" % (w, args.runs))
        print("  %-16s %6s %12s %8s %12s %8s %8s %6s" %
              ("metric", "unit", "median A", "spr A", "median B", "spr B",
               "drift", "bound"))
        for name, m in bounds.items():
            meds, sprs = [], []
            for s in (0, 1):
                vals = [r["metrics"][name]["value"] for r in sets[w][s]]
                q = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                meds.append(med)
                sprs.append((q[2] - q[0]) / med)
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (meds[1] - meds[0]) / meds[0]
            ratio = max(max(sprs), abs(drift)) / m["bound"]
            worst = max(worst, ratio)
            print("  %-16s %6s %12.5g %7.2f%% %12.5g %7.2f%% %+7.2f%% %5.0f%%%s" %
                  (name, m["unit"], meds[0], 100 * sprs[0], meds[1],
                   100 * sprs[1], 100 * drift, 100 * m["bound"],
                   "  OVER" if ratio > 1 else ""))
        for s in (0, 1):
            shares = {(r["failed"], r["attempted"]) for r in sets[w][s]}
            ok = all(r["correct"] for r in sets[w][s])
            print("  set %s: correct=%s failed/attempted=%s" %
                  ("AB"[s], ok, sorted(shares)))
    print("\nworst spread-or-drift / bound: %.2f" % worst)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "spread":
        p = argparse.ArgumentParser(prog="run.py spread")
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seconds", type=int, default=spec_seconds())
        p.add_argument("--workloads", default="")
        spread(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    binary = build()
    sys.stdout.flush()
    proc = subprocess.run(
        [binary, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
