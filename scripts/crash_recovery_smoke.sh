#!/usr/bin/env bash
# Crash-recovery smoke: prove that an acked rule update survives kill -9.
#
#   scripts/crash_recovery_smoke.sh [build-dir]
#
# The experiment (see examples/crash_chaos.cpp for the two halves):
#   1. Launch rfipcd with --journal --fsync always on a fresh directory;
#      it seeds the generated ruleset as a checkpoint.
#   2. crash_chaos --mode burst fires a stream of random inserts/erases,
#      journaling try/ack lines to a trace file as replies arrive.
#   3. Mid-burst, SIGKILL the daemon — no drain, no flush courtesy.
#   4. Restart rfipcd on the same journal directory; it must recover the
#      checkpoint, replay the journal tail, and salvage any torn tail.
#   5. crash_chaos --mode verify replays the trace against a local
#      reference ruleset and asserts (a) the server's persisted last_seq
#      covers every acked update — with --fsync always an OK reply means
#      the record hit the disk, so kill -9 cannot take it back — and
#      (b) a differential classify matches the reference decision for
#      decision.
#   6. A second kill -9 + restart on the now-compacted state must
#      recover to the same answers (checkpoint path, not just replay).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target rfipcd crash_chaos

RULES=64
SEED=7
BURST_OPS=5000

workdir="${BUILD_DIR}/crash-smoke"
rm -rf "${workdir}"
mkdir -p "${workdir}"
journal="${workdir}/journal"
trace="${workdir}/trace.txt"
port_file="${workdir}/rfipcd.port"

DAEMON=""
cleanup() { [[ -n "${DAEMON}" ]] && kill -9 "${DAEMON}" 2>/dev/null || true; }
trap cleanup EXIT

# Sets DAEMON and PORT (no subshell — both must reach the caller).
start_daemon() {
  local log="$1"
  rm -f "${port_file}"
  "${BUILD_DIR}/examples/rfipcd" --rules "${RULES}" --seed "${SEED}" --shards 2 \
    --journal "${journal}" --fsync always --checkpoint-every 1024 \
    --port-file "${port_file}" > "${log}" 2>&1 &
  DAEMON=$!
  for _ in $(seq 1 100); do
    [[ -s "${port_file}" ]] && break
    sleep 0.1
  done
  [[ -s "${port_file}" ]] || {
    echo "crash_smoke: rfipcd never wrote ${port_file}" >&2
    cat "${log}" >&2
    exit 1
  }
  PORT="$(cat "${port_file}")"
}

echo "crash_smoke: starting journaled rfipcd (fsync=always)"
start_daemon "${workdir}/rfipcd-1.log"

# Fire the burst in the background and yank the power mid-flight.
"${BUILD_DIR}/examples/crash_chaos" --mode burst --port "${PORT}" \
  --rules "${RULES}" --seed "${SEED}" --ops "${BURST_OPS}" \
  --trace "${trace}" > "${workdir}/burst.log" 2>&1 &
BURST=$!
# Let some updates ack first (the burst writes an ack line per update).
for _ in $(seq 1 200); do
  acks="$(grep -c '^ack ' "${trace}" 2>/dev/null || true)"
  [[ "${acks:-0}" -ge 50 ]] && break
  sleep 0.05
done
kill -9 "${DAEMON}"
DAEMON=""
wait "${BURST}" || true
acked="$(grep -c '^ack ' "${trace}" || true)"
echo "crash_smoke: SIGKILLed the daemon after ${acked} acked updates"
[[ "${acked}" -ge 1 ]] || {
  echo "crash_smoke: burst never got an ack" >&2
  cat "${workdir}/burst.log" >&2
  exit 1
}

echo "crash_smoke: restarting from ${journal}"
start_daemon "${workdir}/rfipcd-2.log"
grep -q 'recovered' "${workdir}/rfipcd-2.log" || {
  echo "crash_smoke: restart did not report recovery" >&2
  cat "${workdir}/rfipcd-2.log" >&2
  exit 1
}
"${BUILD_DIR}/examples/crash_chaos" --mode verify --port "${PORT}" \
  --rules "${RULES}" --seed "${SEED}" --trace "${trace}" --packets 2000

# Round 2: kill the recovered daemon too, restart, and verify again —
# this exercises recovery from checkpoint + compacted segments.
kill -9 "${DAEMON}"
DAEMON=""
echo "crash_smoke: second kill -9, restarting again"
start_daemon "${workdir}/rfipcd-3.log"
"${BUILD_DIR}/examples/crash_chaos" --mode verify --port "${PORT}" \
  --rules "${RULES}" --seed "${SEED}" --trace "${trace}" --packets 2000

kill -TERM "${DAEMON}" 2>/dev/null || true
wait "${DAEMON}" 2>/dev/null || true
DAEMON=""
trap - EXIT

echo
echo "crash_smoke: PASS (no acked update lost across two kill -9 restarts)"
