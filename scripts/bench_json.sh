#!/usr/bin/env bash
# Runs every bench binary with google-benchmark JSON output, writing one
# BENCH_<name>.json per binary so the perf trajectory is recorded across
# PRs: BENCH_paper.json holds every paper table/figure's kernels, the
# other files one subsystem each. The banner/report tables still go to
# stdout; the machine-readable timings land in the JSON files
# (--benchmark_out, not --benchmark_format, because the report preamble
# would corrupt a stdout JSON stream).
#
# Usage: scripts/bench_json.sh [OUTDIR] [-- extra benchmark args...]
#   OUTDIR defaults to bench-results/. SM_THREADS sizes the shared thread
#   pool of every binary that has one (all but bench_micro_primitives,
#   whose primitives are single-threaded), e.g.:
#     SM_THREADS=8 scripts/bench_json.sh
#     scripts/bench_json.sh out -- --benchmark_filter=BM_WorldBuild
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="bench-results"
extra_args=()
if [[ $# -gt 0 && "$1" != "--" ]]; then
  outdir="$1"
  shift
fi
if [[ $# -gt 0 && "$1" == "--" ]]; then
  shift
  extra_args=("$@")
fi

cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
mkdir -p "$outdir"

shopt -s nullglob
benches=(build/bench/bench_*)
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "no bench binaries under build/bench" >&2
  exit 1
fi

for bench in "${benches[@]}"; do
  [[ -x "$bench" ]] || continue
  name="$(basename "$bench")"
  out="$outdir/BENCH_${name#bench_}.json"
  echo "== $name -> $out"
  "$bench" --benchmark_out="$out" --benchmark_out_format=json \
           "${extra_args[@]}"
done

echo "bench JSON written to $outdir/"
