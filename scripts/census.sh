#!/usr/bin/env bash
# Symbol census: which exported functions of the src/ libraries does no
# shipped binary link?
#
# Builds every shipped binary (the 4 tools, 9 bench binaries, 4 examples
# and perfbench) at -O0 with one section per function, links them with
# --gc-sections, and lists the strong global text symbols (nm type T) of
# the src/ libraries that appear in none of them. Inline and template
# functions are weak (W) and fall outside the census. The list is diffed
# against scripts/census_keep.txt: one demangled symbol per line, then
# "  # " and the reason it stays (a test oracle or fixture builder).
#
# Usage: scripts/census.sh [--list]
#   --list prints every unlinked symbol (kept ones too) and exits 0.
# Exit status: 0 when the unlinked symbols are exactly the keep list, 1
# when one is missing from it or a listed one is linked again or gone
# (each is printed), 2 when the build fails. Builds into build-census/
# (log in build-census/build.log); takes a few minutes on 4 cores, so
# scripts/tier1.sh does not run it.
set -euo pipefail
cd "$(dirname "$0")/.."

list_only=0
for arg in "$@"; do
  case "$arg" in
    --list) list_only=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

out=build-census
jobs="$(nproc)"
cmake_flags=(-DCMAKE_BUILD_TYPE=Census
             "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
             "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

tools=(sm_survey sm_notaryd sm_notary_router sm_reshard)
benches=(bench_paper bench_micro_primitives bench_archive_io bench_corpus
         bench_notary bench_live bench_router bench_reshard bench_revocation)
examples=(quickstart device_tracking cert_forensics reassignment_atlas)

echo "census: building ${#tools[@]} tools, ${#benches[@]} benches," \
     "${#examples[@]} examples and perfbench into $out/" >&2
mkdir -p "$out"
log="$out/build.log"
: >"$log"
quiet() {
  if ! "$@" >>"$log" 2>&1; then
    tail -n 30 "$log" >&2
    echo "census: build failed (full log: $log)" >&2
    exit 2
  fi
}
quiet cmake -S . -B "$out/main" "${cmake_flags[@]}"
quiet cmake --build "$out/main" -j "$jobs" \
    --target "${tools[@]}" "${benches[@]}" "${examples[@]}"
# perfbench is its own CMake project over ../src.
quiet cmake -S perfbench -B "$out/perfbench" "${cmake_flags[@]}"
quiet cmake --build "$out/perfbench" -j "$jobs" --target perfbench

binaries=("$out/perfbench/perfbench")
for t in "${tools[@]}"; do binaries+=("$out/main/tools/$t"); done
for b in "${benches[@]}"; do binaries+=("$out/main/bench/$b"); done
for e in "${examples[@]}"; do binaries+=("$out/main/examples/$e"); done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Everything the binaries define, by demangled name.
for b in "${binaries[@]}"; do
  nm -C --defined-only "$b" | sed -n 's/^[0-9a-f]* [A-Za-z] //p'
done | sort -u >"$tmp/linked"

# The strong global functions the src/ libraries export.
find "$out/main/src" -name 'libsm_*.a' -print0 |
  xargs -0 nm -C --defined-only |
  sed -n 's/^[0-9a-f]* T //p' |
  sort -u >"$tmp/exported"

comm -23 "$tmp/exported" "$tmp/linked" >"$tmp/unlinked"
sed -e 's/[[:space:]]*#.*$//' -e '/^$/d' scripts/census_keep.txt |
  sort -u >"$tmp/keep"

echo "census: $(wc -l <"$tmp/exported") exported functions," \
     "$(wc -l <"$tmp/unlinked") linked by no shipped binary," \
     "$(wc -l <"$tmp/keep") on the keep list" >&2
if [[ "$list_only" == 1 ]]; then
  cat "$tmp/unlinked"
  exit 0
fi

status=0
unexpected="$(comm -23 "$tmp/unlinked" "$tmp/keep")"
if [[ -n "$unexpected" ]]; then
  echo "census: linked by no shipped binary and not on the keep list:" >&2
  echo "$unexpected" >&2
  status=1
fi
stale="$(comm -13 "$tmp/unlinked" "$tmp/keep")"
if [[ -n "$stale" ]]; then
  echo "census: on the keep list but linked or gone (remove the line):" >&2
  echo "$stale" >&2
  status=1
fi
exit "$status"
