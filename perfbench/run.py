#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload survey|lookup|bulk|ingest \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build). The program's report is echoed, followed by a
`context` line (nproc, CPU model, build type, compiler, commit, and the
CPU seconds the hypervisor stole during the run). The last
line is the JSON result. The result and its context are also saved under
<build>/results/ for compare.py. Exits non-zero, printing and saving no
result, when the build or the run fails, or when the run answered wrong
("correct" false or "failed" above 0).
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
MAX_SECONDS = 60
# A run measures for at most MAX_SECONDS; the rest is for its set-ups,
# the oracle and the checks.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configures (once) and builds perfbench; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    log = sys.stderr
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                check=True, stdout=log, stderr=log)
        subprocess.run(
            ["cmake", "--build", out_dir, "--target", "perfbench",
             "-j", str(os.cpu_count() or 1)],
            check=True, stdout=log, stderr=log)
    return os.path.join(out_dir, "perfbench")


def commit():
    """The git commit, or a digest of the sources when not in git."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_steal_s():
    """CPU seconds the hypervisor took from this machine so far."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def context(report_lines, steal_s):
    compiler = "unknown"
    for line in report_lines:
        if line.startswith("workload ") and " compiler " in line:
            compiler = line.split(" compiler ", 1)[1].strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": BUILD_TYPE,
        "compiler": compiler,
        "commit": commit(),
        "host_steal_s": round(steal_s, 2),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["survey", "lookup", "bulk", "ingest"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        parser.error("--seed must be >= 0, --seconds in 1..%d" % MAX_SECONDS)

    out_dir = build_dir()
    try:
        program = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        command += ["--trace-out",
                    os.path.join(out_dir, "traces", tag + ".spans.tsv")]
    steal0 = host_steal_s()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
    except ValueError:
        result = None
    if result is None or not result.get("correct") or result.get("failed"):
        sys.stderr.write(run.stdout)
        print("perfbench: run failed (exit %d)" % run.returncode,
              file=sys.stderr)
        return 1

    ctx = context(lines, host_steal_s() - steal0)
    for line in lines[:-1]:
        print(line)
    print("context " + json.dumps(ctx, sort_keys=True))
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    with open(os.path.join(out_dir, "results", tag + ".json"), "w") as f:
        json.dump({"context": ctx, "workload": args.workload,
                   "seed": args.seed, "trace": args.trace,
                   "result": result}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
