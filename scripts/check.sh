#!/usr/bin/env bash
# CI-style gate: tier-1 build + tests in four configurations.
#   1. plain           — the default RelWithDebInfo build, full ctest
#   2. scalar          — RFIPC_DISABLE_SIMD=ON, full ctest, so the
#      portable fallback data plane stays green alongside the AVX2 one
#   3. address,undefined — ASan+UBSan build, full ctest (includes the
#      persist journal/recovery and resilient-client suites)
#   4. thread          — TSan build, concurrency-sensitive tests only
#      (shard workers, RCU, sharded runtime,
#      concurrent update stress, fault containment, flow-cache
#      coherence, the capture rings under concurrent rule updates, the
#      wire codec, the classification service E2E, the durable log's
#      applier/checkpoint-thread interplay, and the deadline/retry
#      client), since TSan triples runtimes
# Each configuration uses its own build directory so the default
# ./build stays untouched for development.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  local dir="$1" sanitize="$2"
  shift 2
  echo "== ${dir} (RFIPC_SANITIZE='${sanitize}') =="
  cmake -B "${dir}" -S . -DRFIPC_SANITIZE="${sanitize}" "${CMAKE_ARGS[@]}" >/dev/null
  cmake --build "${dir}" -j "$(nproc)" "$@"
  # -j needs an explicit value: a bare "-j" would swallow the next
  # CTEST_ARGS element (e.g. -R) as its argument.
  (cd "${dir}" && ctest --output-on-failure -j "$(nproc)" "${CTEST_ARGS[@]}")
}

CMAKE_ARGS=()
CTEST_ARGS=()
run build ""

CMAKE_ARGS=(-DRFIPC_DISABLE_SIMD=ON)
CTEST_ARGS=()
run build-scalar ""

CMAKE_ARGS=()
CTEST_ARGS=()
run build-asan "address,undefined"

CMAKE_ARGS=()
CTEST_ARGS=(-R 'test_shard_workers|test_runtime|test_rcu|test_fault_containment|test_flow_cache|test_capture|test_wire|test_server|test_persist|test_resilient_client')
run build-tsan "thread" --target test_shard_workers test_runtime test_rcu \
  test_runtime_concurrent test_fault_containment test_flow_cache test_capture \
  test_wire test_server test_persist test_resilient_client

echo
echo "== check.sh: all configurations passed =="
