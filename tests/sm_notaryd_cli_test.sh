#!/usr/bin/env bash
# End-to-end checks of the sm_notaryd binary itself, over real sockets on
# kernel-assigned ports:
#
#   1. split → ingest: `--split-segments 3` writes base.smar plus three
#      segments; a daemon serving `--archive base.smar --ingest DIR`
#      ingests them to epoch 3 and then answers `--probe --oracle`
#      byte-identically to a static daemon over the full archive.
#   2. `--query` exit codes: 0 found, 3 not in the index, 2 bad hex,
#      1 nothing listening.
#   3. The ingest daemon's `revocation:` line for base certificates
#      matches a simulated-world daemon's (the base archive's .rev
#      sidecar must be read, not dropped).
#
# Usage: sm_notaryd_cli_test.sh SM_NOTARYD SM_SURVEY
set -euo pipefail

notaryd="$1"
survey="$2"
work="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  for log in "$work"/*.log; do
    [[ -f "$log" ]] || continue
    echo "--- $log" >&2
    tail -n 5 "$log" >&2
  done
  exit 1
}

SIM=(--seed 7 --devices 300 --websites 120 --scale 0.2)

# Starts a daemon on port 0 in the background; sets $port once its
# "listening on ADDR:PORT" line is in the log.
start_daemon() {
  local log="$1"
  shift
  "$notaryd" "$@" --port 0 >"$log" 2>&1 &
  pids+=($!)
  port=""
  for _ in $(seq 1 300); do
    port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$log")"
    [[ -n "$port" ]] && return 0
    sleep 0.1
  done
  fail "daemon never came up: $*"
}

"$survey" simulate "${SIM[@]}" --tsv "$work/full.tsv" \
    --archive "$work/full.smar" >/dev/null 2>&1 \
  || fail "sm_survey simulate"
"$notaryd" "${SIM[@]}" --split-segments 3 "$work/split" \
    >"$work/split.log" 2>&1 || fail "--split-segments 3"
[[ -f "$work/split/base.smar" ]] || fail "no base.smar"
[[ -f "$work/split/base.smar.rev" ]] || fail "no base.smar.rev"

# ---- 1. split → ingest to epoch 3, then oracle-checked probe ----------
mkdir "$work/ingest"
start_daemon "$work/ingest.log" --archive "$work/split/base.smar" \
    --ingest "$work/ingest" --ingest-poll-ms 50
ingest_port="$port"
# Sidecar first, then the segment: the poller keys on the .smar.
for seg in "$work"/split/segment-*.smar; do
  name="$(basename "$seg")"
  [[ -f "$seg.rev" ]] && mv "$seg.rev" "$work/ingest/$name.rev"
  mv "$seg" "$work/ingest/$name"
done
for _ in $(seq 1 300); do
  grep -q -- "-> epoch 3 " "$work/ingest.log" && break
  sleep 0.1
done
grep -q -- "-> epoch 3 " "$work/ingest.log" || fail "ingest never reached epoch 3"

start_daemon "$work/static.log" --archive "$work/full.smar"
static_port="$port"
probe_out="$("$notaryd" "${SIM[@]}" --probe 3000 --port "$ingest_port" \
    --oracle "127.0.0.1:$static_port" 2>"$work/probe.log")" \
  || fail "--probe against the ingest daemon: $probe_out"
grep -q "6000 lookups, 0 mismatches (oracle-checked)" <<<"$probe_out" \
  || fail "unexpected probe summary: $probe_out"

# ---- 2. --query exit codes ---------------------------------------------
fingerprints=($(awk -F'\t' '$1 == "C" { print $2 }' "$work/full.tsv"))
[[ "${#fingerprints[@]}" -ge 300 ]] || fail "too few certificates in TSV"
query_rc() {
  local rc=0
  "$notaryd" "$@" >/dev/null 2>&1 || rc=$?
  echo "$rc"
}
[[ "$(query_rc --query "${fingerprints[0]}" --port "$static_port")" == 0 ]] \
  || fail "--query hit did not exit 0"
[[ "$(query_rc --query ffffffffffffffffffffffffffffffff \
        --port "$static_port")" == 3 ]] || fail "--query miss did not exit 3"
[[ "$(query_rc --query nothex --port "$static_port")" == 2 ]] \
  || fail "--query bad hex did not exit 2"

# ---- 3. revocation lines for base certificates ---------------------------
start_daemon "$work/sim.log" "${SIM[@]}"
sim_port="$port"
revocation_line() {
  "$notaryd" --query "$1" --port "$2" 2>/dev/null | grep '^revocation: ' \
    || true
}
differ=0
for fp in "${fingerprints[@]:0:300}"; do
  got="$(revocation_line "$fp" "$ingest_port")"
  want="$(revocation_line "$fp" "$sim_port")"
  [[ -n "$want" ]] || fail "simulated daemon has no revocation line for $fp"
  if [[ "$got" != "$want" ]]; then
    differ=$((differ + 1))
    [[ "$differ" -le 3 ]] && echo "$fp: ingest '$got' vs simulated '$want'" >&2
  fi
done
[[ "$differ" == 0 ]] \
  || fail "$differ of 300 base certificates answer a different revocation status"

# Closed port last: stop the static daemon and query its old port.
kill "${pids[1]}"
wait "${pids[1]}" 2>/dev/null || true
[[ "$(query_rc --query "${fingerprints[0]}" --port "$static_port")" == 1 ]] \
  || fail "--query against a closed port did not exit 1"

echo "sm_notaryd CLI checks OK"
