#!/usr/bin/env python3
"""Fast smoke check of the benchmark itself (not part of the test suite).

    python3 bench/smoke.py

Runs every workload at the tiny size, untraced and traced, and asserts that
the result line has the contract's keys, that every metric named in
BENCHMARK.json appears with its unit, that the correctness checks ran and
passed, and that the layer self times account for the traced wall time:
the benchmark's own time outside every layer span must stay under
BENCH_SELF_SHARE of it. It also checks that the benchmark refuses to run,
without printing a result, from a copy that holds only BENCHMARK.json and
the benchmark's files. Takes about a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300
# The benchmark's own time in a traced body (the operation loop, its lambdas
# and the stdout capture) is under 0.5% of the traced wall on every workload.
# A layer call that escapes the wrappers lands here and pushes it past this.
BENCH_SELF_SHARE = 0.02


def run(cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(bench, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                              "--trace", str(trace), "--size", "tiny"]
    done = run(cmd)
    assert done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, done.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} trace {trace}: metrics {got} != {want}"
    checks = re.search(r"exact checks: (\d+) made, 0 problems", done.stdout)
    assert checks and int(checks.group(1)) > 0, "no exact checks ran"
    assert lines[-2].startswith("provenance "), "no provenance record"
    if workload == "analytic":
        assert result["failed"] >= 1, "the critical GW law should be reported unconverged"
    if trace:
        m = {name: v["value"] for name, v in result["metrics"].items()}
        share = m["bench.self_s"] / m["trace.wall_s"]
        assert share <= BENCH_SELF_SHARE, (
            f"{workload}: {share:.1%} of the traced wall is outside every layer span; "
            "is a layer function called through an unwrapped binding?")
    print(f"ok  {workload:<9} trace {trace}: {result['attempted']} operations, "
          f"{result['failed']} failed, {checks.group(1)} exact checks")


def check_refuses_without_sources(bench):
    bare = os.path.join(ROOT, ".bench_out", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        name = bench["workloads"][0]["name"]
        done = run(bench["command"] + ["--workload", name, "--seed", "0", "--seconds", "1",
                                       "--trace", "0"], cwd=bare)
        assert done.returncode != 0, "ran without the brwlab sources"
        assert '"correct"' not in done.stdout, "printed a result without the brwlab sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without src/brwlab")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
    check_refuses_without_sources(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
