#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, then a
# resharding end-to-end smoke (a real sm_notaryd/sm_notary_router/
# sm_reshard deployment splits a shard and merges it back under
# oracle-checked loopback load — zero failed queries allowed), then a
# ThreadSanitizer build exercising the concurrency-bearing tests
# (thread pool, cert-table readers racing appends, corpus spine, linking
# pipeline, dataset index, tracker, parallel world simulation, batch
# verifier, notary epoll server +
# loopback traffic, live-ingestion epoch swaps racing loopback queries,
# sharded router deployment with backend kill/restart, online-resharding
# split/merge handoffs under load),
# then an AddressSanitizer build running the archive I/O and notary-frame
# corruption harnesses (exhaustive truncation + bit-flip sweeps over
# hostile input), the shared cert-table chunks, plus the world-determinism
# test.
#
# The simworld_parallel_test golden-hash determinism check runs under BOTH
# sanitizer configs: any thread-count divergence in the simulated archive
# bytes fails the pass.
#
# Usage: scripts/tier1.sh [--no-tsan] [--no-asan] [--bench]
#   --bench additionally runs scripts/bench_check.sh (notary/router
#   benchmarks vs the committed bench-results/ baselines) — opt-in
#   because benchmark timings need a quiet machine to mean anything.
set -euo pipefail
cd "$(dirname "$0")/.."

run_tsan=1
run_asan=1
run_bench=0
for arg in "$@"; do
  case "$arg" in
    --no-tsan) run_tsan=0 ;;
    --no-asan) run_asan=0 ;;
    --bench) run_bench=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier 1: standard build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
ctest --test-dir build --output-on-failure -j

echo "== tier 1: strict flag validation (exit 2 + usage on stderr) =="
check_rejects() {
  local out rc=0
  out="$("$@" 2>&1 >/dev/null)" || rc=$?
  if [[ "$rc" != 2 ]] || ! grep -q "usage:" <<<"$out"; then
    echo "expected exit 2 + usage from: $*  (got exit $rc)" >&2
    exit 1
  fi
}
check_rejects ./build/tools/sm_notary_router --backend nonsense
check_rejects ./build/tools/sm_notary_router --backend host:0
check_rejects ./build/tools/sm_notary_router --backend 127.0.0.1:1,
check_rejects ./build/tools/sm_notaryd --shard-prefix 3/2
check_rejects ./build/tools/sm_notaryd --shard-prefix 0/0
check_rejects ./build/tools/sm_notaryd --shard-prefix 9-1
check_rejects ./build/tools/sm_reshard --split 1
check_rejects ./build/tools/sm_reshard --router x:1 --split 0 --merge 0

echo "== tier 1: resharding e2e smoke (split + merge back under load) =="
smoke_dir="$(mktemp -d)"
smoke_pids=()
smoke_cleanup() {
  for pid in "${smoke_pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$smoke_dir"
}
trap smoke_cleanup EXIT
SIM=(--seed 7 --devices 300 --websites 120 --scale 0.2)
base_port=17921
wait_port() {
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then return 0; fi
    sleep 0.1
  done
  echo "port $1 never came up" >&2
  return 1
}
# Unsharded oracle + two live shards + an empty successor + the router.
./build/tools/sm_notaryd "${SIM[@]}" --port $((base_port + 1)) \
    >"$smoke_dir/oracle.log" 2>&1 & smoke_pids+=($!)
./build/tools/sm_notaryd "${SIM[@]}" --shard-prefix 0/2 \
    --port $((base_port + 2)) >"$smoke_dir/shard0.log" 2>&1 & smoke_pids+=($!)
./build/tools/sm_notaryd "${SIM[@]}" --shard-prefix 1/2 \
    --port $((base_port + 3)) >"$smoke_dir/shard1.log" 2>&1 & smoke_pids+=($!)
./build/tools/sm_notaryd "${SIM[@]}" --empty \
    --port $((base_port + 4)) >"$smoke_dir/succ.log" 2>&1 & smoke_pids+=($!)
for p in 1 2 3 4; do wait_port $((base_port + p)); done
./build/tools/sm_notary_router --port $base_port \
    --backend 127.0.0.1:$((base_port + 2)) \
    --backend 127.0.0.1:$((base_port + 3)) \
    >"$smoke_dir/router.log" 2>&1 & smoke_pids+=($!)
wait_port $base_port
# Oracle-checked load across the whole handoff: exits non-zero on any
# failed query or any byte that differs from the unsharded oracle.
./build/tools/sm_notaryd "${SIM[@]}" --probe 20000 \
    --host 127.0.0.1 --port $base_port \
    --oracle 127.0.0.1:$((base_port + 1)) \
    >"$smoke_dir/probe.log" 2>&1 & probe_pid=$!
sleep 2  # let the prober finish its world build and start querying
./build/tools/sm_reshard --router 127.0.0.1:$base_port \
    --split 1 --to 127.0.0.1:$((base_port + 4))
./build/tools/sm_reshard --router 127.0.0.1:$base_port --merge 1
if ! wait "$probe_pid"; then
  echo "resharding smoke: probe failed" >&2
  tail -n 5 "$smoke_dir/probe.log" >&2
  exit 1
fi
tail -n 1 "$smoke_dir/probe.log"
# A final full sweep against the post-handoff (epoch 3) layout.
./build/tools/sm_notaryd "${SIM[@]}" --probe 2000 \
    --host 127.0.0.1 --port $base_port \
    --oracle 127.0.0.1:$((base_port + 1))
smoke_cleanup
trap - EXIT
echo "resharding smoke OK"

tsan_tests=(thread_pool_test cert_table_test corpus_test linking_parallel_test
            linking_test analysis_test tracking_test util_test
            simworld_parallel_test batch_verifier_test
            netio_test notary_test notary_loopback_test live_ingest_test
            router_test revocation_test reshard_test)
if [[ "$run_tsan" == 1 ]]; then
  echo "== tier 1: TSan build (thread pool + linking/analysis/tracking + world/verify + notary) =="
  cmake -B build-tsan -S . -DSM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target "${tsan_tests[@]}" >/dev/null
  # Suppressions cover the libstdc++ atomic<shared_ptr> internals (see
  # the file's header); halt_on_error keeps a real report fatal.
  export TSAN_OPTIONS="suppressions=$PWD/scripts/tsan_suppressions.txt halt_on_error=1 ${TSAN_OPTIONS:-}"
  for t in "${tsan_tests[@]}"; do
    echo "-- $t (tsan)"
    ./build-tsan/tests/"$t" --gtest_brief=1
  done
  # ClientPool callers hand a connection's reading role to each other;
  # those handoffs race only under real parallelism, so the pool and the
  # router over it get repeated runs.
  for t in netio_test router_test; do
    echo "-- $t (tsan, repeat 20)"
    ./build-tsan/tests/"$t" --gtest_brief=1 --gtest_repeat=20
  done
fi

asan_tests=(archive_corruption_test archive_io_test simworld_parallel_test
            cert_table_test corpus_test netio_test notary_loopback_test
            live_ingest_test router_test revocation_test reshard_test)
if [[ "$run_asan" == 1 ]]; then
  echo "== tier 1: ASan build (archive I/O + notary-frame corruption harnesses + world determinism) =="
  cmake -B build-asan -S . -DSM_SANITIZE=address >/dev/null
  cmake --build build-asan -j --target "${asan_tests[@]}" >/dev/null
  for t in "${asan_tests[@]}"; do
    echo "-- $t (asan)"
    ./build-asan/tests/"$t" --gtest_brief=1
  done
fi

if [[ "$run_bench" == 1 ]]; then
  echo "== tier 1: bench regression check (notary/router vs committed baselines) =="
  scripts/bench_check.sh
fi

echo "tier 1 OK"
