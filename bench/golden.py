#!/usr/bin/env python3
"""Record the sha256 of every checked CSV body at seed 0 into golden.json.

    python3 bench/golden.py            # both sizes, all workloads

Run it only when a change alters the CSV contract on purpose, and say so in
CHANGES.md: the benchmark counts any other difference as incorrect output.
"""

import json
import os
import shutil
import sys

import run  # sets one BLAS thread before numpy is imported
import workloads


def record(size, workload):
    out = os.path.join(run.OUT_ROOT, f"golden-{os.getpid()}")
    try:
        ctx = workloads.setup(workload, 0, size, out)
        ledger = workloads.Ledger()
        results, _ = workloads.run_ops(workloads.ops(ctx))
        workloads.verify(ctx, results, True, ledger, None)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if not ledger.correct:
        raise SystemExit(f"{size}/{workload} is incorrect, not recording:\n  "
                         + "\n  ".join(ledger.problems))
    return dict(sorted(ctx.first_digests.items()))


def main():
    golden = {size: {w: record(size, w) for w in workloads.WORKLOADS}
              for size in sorted(workloads.SIZES)}
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
