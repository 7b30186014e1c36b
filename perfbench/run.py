#!/usr/bin/env python3
"""Sweep benchmark runner.

Builds the benchmark (perfbench/CMakeLists.txt: the simulator library from
src/, the perfbench program, and the uwb_sweep CLI) under .bench_build/, runs
one workload, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 perfbench/run.py --workload gen2_grid --seed 7 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
line before it carries the machine fingerprint and build provenance. With
--trace 1 the runner also runs uwb_sweep on the same spec, seed and stop
rule and requires its result document to equal the benchmark's byte for
byte. The exit code is 0 only when every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
WORKLOADS = ("gen2_grid", "gen1_awgn", "gen2_ensemble")
DEADLINE_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds (both no-ops when up to date); returns False
    when either step fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=env)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def machine_fingerprint():
    cpu = "unknown"
    cpuinfo = read_text("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = []
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_root):
        for entry in sorted(os.listdir(cache_root)):
            if not entry.startswith("index"):
                continue
            base = os.path.join(cache_root, entry)
            level, kind, size = (read_text(os.path.join(base, f)) for f in ("level", "type", "size"))
            caches.append("L%s %s %s" % (level, kind, size))
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
    }


def is_build_input(relpath):
    """The files the benchmark binaries are compiled from."""
    if relpath.startswith(("src" + os.sep, "tools" + os.sep)):
        return True
    return relpath.endswith((".cpp", ".h", "CMakeLists.txt"))


def source_provenance():
    """Git SHA when the tree is a git checkout, and always a digest of the
    sources the benchmark builds from."""
    sha = "unavailable"
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                relpath = os.path.relpath(path, ROOT)
                if not is_build_input(relpath):
                    continue
                digest.update(relpath.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def compare_with_uwb_sweep(result, deadline):
    """Runs uwb_sweep on the workload's spec and seed; returns (points, failed)."""
    reference = result["reference_result"]
    with open(reference, "rb") as f:
        expected = f.read()
    points = len(json.loads(expected)["points"])
    out = os.path.join(OUT_DIR, "uwb_sweep.json")
    cmd = [os.path.join(BUILD_DIR, "uwb_sweep")] + result["uwb_sweep_args"] + ["--out", out]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        log(proc.stderr[-2000:])
        log("FAIL uwb_sweep exited with %d" % proc.returncode)
        return points, points
    with open(out, "rb") as f:
        actual = f.read()
    if actual == expected:
        return points, 0
    mine, theirs = json.loads(expected)["points"], json.loads(actual)["points"]
    failed = sum(1 for i in range(points) if i >= len(theirs) or mine[i] != theirs[i])
    log("FAIL uwb_sweep result differs from the benchmark's (%d points)" % failed)
    return points, max(failed, 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not build():
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: workload did not finish in time")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: program exited with %d and no result" % proc.returncode)
        return 1
    result = json.loads(lines[-1])

    attempted, failed = result["attempted"], result["failed"]
    if args.trace == 1:
        try:
            points, bad = compare_with_uwb_sweep(result, deadline)
        except subprocess.TimeoutExpired:
            log("perfbench: uwb_sweep cross-check did not finish in time")
            return 1
        attempted += points
        failed += bad

    sha, digest = source_provenance()
    fingerprint = dict(machine_fingerprint())
    fingerprint.update({
        "build": result["build"],
        "git_sha": sha,
        "source_digest": digest,
        "workload": args.workload,
        "workload_seed": args.seed,
        "sweep_seed": result["sweep_seed"],
        "workers": result["workers"],
    })
    print(json.dumps({"fingerprint": fingerprint}))
    correct = failed == 0 and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
