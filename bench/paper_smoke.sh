#!/usr/bin/env bash
# bench_paper smoke: --threads sizes the pool the shared context is built
# on, and every benchmark recorded in BENCH_paper.json is still listed
# under its recorded name.
#
# Usage: bench/paper_smoke.sh BENCH_PAPER_BINARY BENCH_PAPER_JSON
set -euo pipefail
bench_paper="$1"
baseline="$2"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

"$bench_paper" --threads 1 --benchmark_list_tests \
    >"$out/stdout" 2>"$out/stderr"
if ! grep -q "on 1 threads" "$out/stderr"; then
  echo "bench_paper --threads 1 did not log 'on 1 threads':" >&2
  cat "$out/stderr" >&2
  exit 1
fi
python3 - "$baseline" "$out/stdout" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    recorded = {row["name"] for row in json.load(f)["benchmarks"]}
with open(sys.argv[2]) as f:
    listed = set(f.read().splitlines())
missing = sorted(recorded - listed)
for name in missing:
    print(f"not listed by bench_paper: {name}", file=sys.stderr)
print(f"{len(recorded) - len(missing)}/{len(recorded)} recorded benchmarks listed")
sys.exit(1 if missing else 0)
PY
