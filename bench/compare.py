#!/usr/bin/env python3
"""Summarize benchmark records, or compare them with a named base.

    python3 bench/compare.py runs.jsonl                  # medians and spreads
    python3 bench/compare.py runs.jsonl --base base.jsonl

Records are the JSON lines that ``run.py --record`` (or series.py) appends.
For each workload and end-to-end metric, in its own row, the summary gives
the run count, the median, the quartiles and the spread: the distance
between the quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median.

With ``--base`` each row also gives new median / base median. A row is
``better`` when every new run is better than every base run. Otherwise it is
``unresolved`` when either side's spread is wider than the metric's bound in
BENCHMARK.json, ``worse`` when the median moved the wrong way by more than
the bound, and ``within bound`` otherwise. A claimed gain needs more than
this, namely alternating paired runs of both commits, which this tool does
not make.
"""

import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def load_records(path):
    """{workload: {metric: [values]}} over the untraced records in ``path``."""
    out = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["provenance"]["trace"]:
                continue
            per = out.setdefault(rec["provenance"]["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return out


def spread(values):
    """(median, q1, q3, (q3 - q1) / median); quartiles need at least two values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(spec, base, new):
    """(new median / base median, verdict word) for one metric of one workload."""
    lower = spec["better"] == "lower"
    b_med, _, _, b_spread = spread(base)
    n_med, _, _, n_spread = spread(new)
    ratio = n_med / b_med if b_med else float("inf")
    if (max(new) < min(base)) if lower else (min(new) > max(base)):
        return ratio, "better"
    if max(b_spread, n_spread) > spec["bound"]:
        return ratio, "unresolved"
    if (ratio - 1.0 if lower else 1.0 - ratio) > spec["bound"]:
        return ratio, "worse"
    return ratio, "within bound"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("records", help="JSON-lines records of the runs to report")
    p.add_argument("--base", help="JSON-lines records of the base to compare against")
    args = p.parse_args(argv)
    with open(BENCHMARK) as fh:
        specs = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    new = load_records(args.records)
    base = load_records(args.base) if args.base else None
    if base is not None:
        print(f"base: {args.base}; ratios are new median / base median")
    print(f"{'workload':<10} {'metric':<12} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}" + (f" {'ratio':>7}  verdict" if base else ""))
    for workload in sorted(new):
        for name, spec in specs.items():
            values = new[workload].get(name)
            if not values:
                continue
            med, q1, q3, sp = spread(values)
            row = (f"{workload:<10} {name:<12} {len(values):>3} {med:>11.5g} {q1:>11.5g} "
                   f"{q3:>11.5g} {sp:>7.3f} {spec['bound']:>6.3f}")
            if base is not None:
                old = base.get(workload, {}).get(name)
                if old:
                    ratio, word = verdict(spec, old, values)
                    row += f" {ratio:>7.4f}  {word}"
                else:
                    row += f" {'-':>7}  no base runs"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
