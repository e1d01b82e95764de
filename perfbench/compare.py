#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are directories of results files written by the benchmark
(.bench_build/results after a set of runs; copy it away between the two
sets). For each workload and metric the script prints the median and
quartiles of both sides and the relative delta of the medians, and flags
a delta larger than both interquartile ranges. The flag says whether the
change is worse or better, using the "better" direction in BENCHMARK.json
where the metric is listed there.
"""

import collections
import glob
import json
import os
import statistics
import sys


def load(path):
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    files = sorted(glob.glob(os.path.join(path, "*.json")))
    if not files:
        sys.exit(f"compare: no results files in {path}")
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        for name, m in r["metrics"].items():
            runs[r["workload"]][(name, m["unit"])].append(m["value"])
    return runs


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    return tuple(statistics.quantiles(v, n=4))


def directions():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "BENCHMARK.json")
    try:
        with open(path) as fh:
            b = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m["better"] for m in b["end_to_end"] + b["per_layer"]}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old, new = load(sys.argv[1]), load(sys.argv[2])
    better = directions()
    flagged = 0
    for wl in sorted(set(old) | set(new)):
        print(f"== {wl}")
        print(f"  {'metric':30s} {'unit':6s} {'old q1/med/q3':>32s}"
              f" {'new q1/med/q3':>32s} {'delta':>8s}")
        for key in sorted(set(old[wl]) | set(new[wl])):
            name, unit = key
            a, b = old[wl].get(key), new[wl].get(key)
            if not a or not b:
                print(f"  {name:30s} {unit:6s} only in {'new' if b else 'old'}")
                continue
            qa, qb = quartiles(a), quartiles(b)
            delta = qb[1] - qa[1]
            rel = f"{100 * delta / qa[1]:+7.2f}%" if qa[1] else "    n/a"
            flag = ""
            if abs(delta) > qa[2] - qa[0] and abs(delta) > qb[2] - qb[0]:
                flagged += 1
                way = better.get(name)
                if way is None:
                    flag = "  <- outside both IQRs"
                else:
                    worse = delta > 0 if way == "lower" else delta < 0
                    flag = "  <- " + ("WORSE" if worse else "better") \
                        + " (outside both IQRs)"
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"  {name:30s} {unit:6s} {fmt(qa):>32s} {fmt(qb):>32s}"
                  f" {rel}{flag}  (n={len(a)}/{len(b)})")
    print(f"{flagged} delta(s) outside both interquartile ranges")


if __name__ == "__main__":
    main()
