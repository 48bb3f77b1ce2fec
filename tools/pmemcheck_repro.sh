#!/usr/bin/env bash
# Concurrency repro under PmemSan: runs the multi-threaded pmemkit suites as
# many concurrent processes, each with the sanitizer attached to every pool
# (CXLPMEM_PMEMCHECK=1, throwing sink), so lanes on different threads keep
# sharing heap lines under load.  Fails if any copy fails.
#
#   tools/pmemcheck_repro.sh <build-dir> [log-dir]
#
# Phase 1: four copies each of pmemkit_{pool,tx,introspect}_test
#          --gtest_filter='*Concurrent*' --gtest_repeat=10, all at once.
# Phase 2: eight copies of pmemkit_crash_test
#          --gtest_filter='CrashSimMT.*' --gtest_repeat=15, all at once.
set -u
build=${1:?usage: pmemcheck_repro.sh <build-dir> [log-dir]}
logs=${2:-$build/pmemcheck-repro}
mkdir -p "$logs"
export CXLPMEM_PMEMCHECK=1

pids=()
names=()
failed=0
start() {  # <binary> <copy-name> <gtest args...>
  "$build/$1" "${@:3}" > "$logs/$2.log" 2>&1 &
  pids+=("$!")
  names+=("$2")
}
wait_all() {
  local i
  for i in "${!pids[@]}"; do
    if ! wait "${pids[$i]}"; then
      echo "FAILED: ${names[$i]} (log: $logs/${names[$i]}.log)"
      tail -n 20 "$logs/${names[$i]}.log"
      failed=$((failed + 1))
    fi
  done
  pids=()
  names=()
}

for t in pmemkit_pool_test pmemkit_tx_test pmemkit_introspect_test; do
  for i in 1 2 3 4; do
    start "$t" "$t-$i" --gtest_filter='*Concurrent*' --gtest_repeat=10
  done
done
wait_all
for i in 1 2 3 4 5 6 7 8; do
  start pmemkit_crash_test "pmemkit_crash_test-$i" \
    --gtest_filter='CrashSimMT.*' --gtest_repeat=15
done
wait_all

if ((failed)); then
  echo "pmemcheck repro: $failed of 20 copies FAILED"
  exit 1
fi
echo "pmemcheck repro: 20 of 20 copies passed"
