#!/usr/bin/env python3
"""Summarises saved benchmark results, and compares two sets of them.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds result files written by run.py (<build>/results/).
Only untraced runs are read. With one directory it prints, per workload
and end-to-end metric, the median of the runs and their spread: the
distance between the first and third quartile as a share of the median,
beside a third of the metric's bound. With two it also prints the
change's median against the base's, and flags a metric worse by more
than its bound from BENCHMARK.json.

Results recorded on different machines or builds (nproc, CPU model,
build type, compiler) are not comparable: the tool refuses, with exit
code 3, instead of reporting a difference. It also refuses, with exit
code 4, a run that answered wrong ("correct" false or "failed" above 0):
its timings say nothing. Exit code 1 means a metric got worse by more
than its bound.
"""

import collections
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONTEXT_KEYS = ("nproc", "cpu_model", "build_type", "compiler")


def load(directory):
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    contexts = set()
    wrong = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            saved = json.load(f)
        if saved["trace"] != 0:
            continue
        contexts.add(tuple(saved["context"][k] for k in CONTEXT_KEYS))
        if not saved["result"]["correct"] or saved["result"]["failed"]:
            wrong.append(path)
        for name, metric in saved["result"]["metrics"].items():
            runs[saved["workload"]][name].append(metric["value"])
    return runs, contexts, wrong


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, base_ctx, base_wrong = load(argv[1])
    change, change_ctx, change_wrong = \
        load(argv[2]) if len(argv) == 3 else ({}, set(), [])
    if base_wrong or change_wrong:
        print("refusing runs that answered wrong:", file=sys.stderr)
        for path in base_wrong + change_wrong:
            print("  " + path, file=sys.stderr)
        return 4
    contexts = base_ctx | change_ctx
    if len(contexts) > 1:
        print("refusing to compare results from different contexts:",
              file=sys.stderr)
        for ctx in sorted(contexts):
            print("  " + json.dumps(dict(zip(CONTEXT_KEYS, ctx))),
                  file=sys.stderr)
        return 3

    worse = 0
    for workload in sorted(base):
        for name, m in spec.items():
            values = base[workload].get(name, [])
            if not values:
                continue
            line = "%-7s %-15s n=%-2d median %14.4f spread %.3f (limit %.3f)" % (
                workload, name, len(values), statistics.median(values),
                spread(values), m["bound"] / 3)
            other = change.get(workload, {}).get(name, [])
            if other:
                b, c = statistics.median(values), statistics.median(other)
                ratio = c / b if b else float("inf")
                bad = ratio > 1 + m["bound"] if m["better"] == "lower" \
                    else ratio < 1 - m["bound"]
                worse += bad
                line += "  change %14.4f (x%.3f)%s" % (
                    c, ratio, "  WORSE BEYOND BOUND" if bad else "")
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
