#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on WorldConfig::tiny() inputs.

    python3 perfbench/smoke_test.py [--binary PATH]

Checks that every workload runs, answers correctly (error_rate 0),
prints every metric named in BENCHMARK.json with its unit in both the
untraced and the traced run, and that the survey digest does not depend
on the thread count. Without --binary it builds the benchmark the way
run.py does. Exits 0 when every check passes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

WORKLOADS = ["survey", "lookup", "bulk", "ingest"]


def drive(binary, *args):
    out = subprocess.run([binary, "--tiny", "--seconds", "1", "--seed", "3",
                          *args], stdout=subprocess.PIPE, text=True,
                         timeout=170)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError("perfbench %s exited %d" % (args, out.returncode))
    return lines, json.loads(lines[-1])


def human_metric(lines, name):
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric" and fields[1] == name:
            return float(fields[2])
    raise AssertionError("metric %s not printed" % name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary")
    args = parser.parse_args()
    binary = args.binary or run.build(run.build_dir())
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS

    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = "%s trace %d" % (workload, trace)
            try:
                lines, result = drive(binary, "--workload", workload,
                                      "--trace", str(trace))
                assert result["correct"], "not correct"
                assert result["failed"] == 0, "failed %d" % result["failed"]
                assert result["attempted"] > 0, "nothing attempted"
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                assert got == wanted[trace], "metrics differ: %s" % sorted(
                    set(got.items()) ^ set(wanted[trace].items()))
                assert human_metric(lines, "error_rate") == 0, "error_rate"
                if trace == 0:
                    zero = [k for k, v in result["metrics"].items()
                            if v["value"] <= 0]
                    assert not zero, "zero end-to-end metrics %s" % zero
                print("ok   %s" % label)
            except (AssertionError, ValueError, subprocess.SubprocessError) as e:
                failures.append(label)
                print("FAIL %s: %s" % (label, e))

    digests = {}
    for threads in (1, max(2, os.cpu_count() or 1)):
        lines, result = drive(binary, "--workload", "survey", "--trace", "0",
                              "--threads", str(threads))
        digests[threads] = [l for l in lines if l.startswith("survey digest")]
    if len(set(map(tuple, digests.values()))) != 1 or not digests[1]:
        failures.append("survey digest vs threads")
        print("FAIL survey digest depends on threads: %s" % digests)
    else:
        print("ok   survey digest identical at %s threads" % sorted(digests))

    print("%d failures" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
