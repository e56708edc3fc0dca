#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds records as perfbench/run.py appends them to
.bench_build/perfbench/results.jsonl. For every workload and trace mode
present in both, prints each metric's median and quartiles on both sides
and the change of the medians. Records whose host fingerprints (sim backend,
ISA level, nproc, build type, compiler) differ are not comparable: the
workload is reported as such and the exit status is 3.
"""
import json
import statistics
import sys
from collections import defaultdict


def load(path):
    groups = defaultdict(list)
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                groups[(r["workload"], r["trace"])].append(r)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(sys.argv[1]), load(sys.argv[2])
    status = 0
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        prints = {json.dumps(r["fingerprint"], sort_keys=True)
                  for r in base[key] + change[key]}
        print(f"== {workload} (trace {trace}): {len(base[key])} vs "
              f"{len(change[key])} runs")
        if len(prints) != 1:
            print("   not comparable: host fingerprints differ:")
            for p in sorted(prints):
                print(f"     {p}")
            status = 3
            continue
        names = base[key][0]["result"]["metrics"].keys()
        for name in names:
            a = [r["result"]["metrics"][name]["value"] for r in base[key]]
            b = [r["result"]["metrics"][name]["value"] for r in change[key]
                 if name in r["result"]["metrics"]]
            if not b:
                continue
            unit = base[key][0]["result"]["metrics"][name]["unit"]
            (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
            delta = f"{(b2 - a2) / a2:+.1%}" if a2 else "n/a"
            print(f"   {name:28s} {a2:12.6g} [{a1:.6g}, {a3:.6g}] -> "
                  f"{b2:12.6g} [{b1:.6g}, {b3:.6g}] {unit:6s} {delta}")
    return status


if __name__ == "__main__":
    sys.exit(main())
