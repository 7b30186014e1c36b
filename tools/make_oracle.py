#!/usr/bin/env python3
"""Regenerates one statistical oracle table, tests/oracle/<name>.json.

An oracle table holds high-budget reference counts for every point of a
scenario: errors and bits for BER scenarios, timing failures and attempts
for acquisition scenarios (their trials carry one "bit" each). Points whose
trials report a modeled sync time (`sync_time_s`, recorded on the trials
that acquire) also carry its mean, its standard deviation and the number of
those detected trials. test_oracle reruns each point at a small budget under
another seed, compares the counts and the detected counts with an exact
two-proportion test and checks that the sync-time mean is unchanged (the
model makes it constant within a point; see docs/performance.md, "The
statistical oracle").

usage:
  tools/make_oracle.py --sweep build/uwb_sweep --out tests/oracle/gen1_waterfall.json \\
      gen1_waterfall --seed 9001 --min-errors 1000 --max-bits 4000000

Every other argument is handed to uwb_sweep as is: a registry scenario
name or `--file <spec.json>`, then the seed and the stopping rule. The
table records that command, the seed and the commit it was built from.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile


def point_entry(point):
    """One point of the table: its counts, and the sync-time summary when
    its trials report one."""
    entry = {"label": point["label"], "tags": point["tags"], "errors": point["errors"],
             "bits": point["bits"], "trials": point["trials"]}
    sync = point.get("metrics", {}).get("sync_time_s")
    if sync is not None:
        entry["sync_time"] = {"mean": sync["mean"], "sd": math.sqrt(sync["variance"]),
                              "detected": sync["count"]}
    return entry


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sweep", required=True, help="path to the uwb_sweep binary")
    parser.add_argument("--out", required=True, help="oracle table to write")
    opts, sweep_args = parser.parse_known_args()
    if "--seed" not in sweep_args:
        sys.exit("make_oracle: give the reference run an explicit --seed")

    with tempfile.TemporaryDirectory() as tmp:
        doc_path = os.path.join(tmp, "reference.json")
        subprocess.run([opts.sweep, *sweep_args, "--quiet", "--out", doc_path], check=True)
        with open(doc_path) as f:
            doc = json.load(f)

    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                         check=True).stdout.strip()
    table = {
        "scenario": doc["scenario"],
        "command": " ".join(["uwb_sweep", *sweep_args]),
        "seed": doc["seed"],
        "sha": sha,
        "stop": doc["stop"],
        "points": [point_entry(p) for p in doc["points"]],
    }
    with open(opts.out, "w") as f:
        json.dump(table, f, indent=2)
        f.write("\n")
    print(f"{opts.out}: {len(table['points'])} points at seed {table['seed']}")


if __name__ == "__main__":
    main()
