#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/series.py --seeds 10 --out runs.jsonl
    python3 bench/series.py --workloads sweep --seeds 5 --first-seed 100 --out runs.jsonl

Runs the command in BENCHMARK.json untraced, with its run_seconds, one process at a
time, cycling through the workloads for each seed so that slow drift of the
machine spreads over all of them. Each run's provenance and result are
appended to ``--out``; compare.py then prints medians, quartiles and spreads.
"""

import argparse
import json
import os
import subprocess
import sys

import compare

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900


def main(argv=None):
    with open(compare.BENCHMARK) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    chosen = args.workloads.split(",")
    unknown = set(chosen) - set(names)
    if unknown:
        p.error(f"unknown workloads {sorted(unknown)}; known: {names}")
    out = os.path.abspath(args.out)
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in chosen:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0", "--record", out]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            last = done.stdout.strip().splitlines()[-1:] or [""]
            print(f"seed {seed} {workload}: exit {done.returncode} {last[0][:200]}", flush=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
    return compare.main([out])


if __name__ == "__main__":
    sys.exit(main())
