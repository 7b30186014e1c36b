#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and summarizes each end-to-end
metric as median, quartiles, and spread (interquartile range over median,
statistics.quantiles(values, n=4)) against the bound in BENCHMARK.json.

    python3 perfbench/collect.py --runs 10 [--workloads gen2_grid,gen1_awgn] \
        [--first-seed 1] [--trace-runs 1] [--baseline perfbench/baseline.json]

--trace-runs N adds N per-layer runs per workload (medians recorded).
--baseline writes the summary, with the fingerprint of the first run, as a
JSON baseline document. Exits nonzero if any run was not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    fingerprint = json.loads(lines[-2])["fingerprint"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("incorrect result: %s" % " ".join(cmd))
    return fingerprint, result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--baseline")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    fingerprint = None
    for workload in args.workloads.split(","):
        per_metric = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            fp, result = run_once(workload, seed, bench["run_seconds"], 0)
            fingerprint = fingerprint or fp
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)
        rows = {name: summarize(values) for name, values in per_metric.items()}
        for name, row in rows.items():
            bound = bounds[name]
            flag = "ok" if row["spread"] < bound / 3 else ("within bound" if row["spread"] <= bound
                                                           else "OVER BOUND")
            print("  %-14s %-12s median %-12.5g spread %.4f (bound %.2f) %s" % (
                workload, name, row["median"], row["spread"], bound, flag), flush=True)
        layers = {}
        for i in range(args.trace_runs):
            _, result = run_once(workload, args.first_seed + i, bench["run_seconds"], 1)
            for name, m in result["metrics"].items():
                layers.setdefault(name, []).append(m["value"])
        summary[workload] = {
            "end_to_end": rows,
            "per_layer_median": {n: statistics.median(v) for n, v in layers.items()},
        }

    if args.baseline:
        doc = {"fingerprint": fingerprint, "runs_per_workload": args.runs,
               "first_seed": args.first_seed, "run_seconds": bench["run_seconds"],
               "workloads": summary}
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
