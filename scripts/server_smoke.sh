#!/usr/bin/env bash
# Service smoke: launch rfipcd on loopback, drive it end to end with
# rfipc_client over the wire protocol, and drain it with SIGTERM.
#
#   scripts/server_smoke.sh [build-dir]
#
# What it asserts:
#   1. PING round-trips.
#   2. CLASSIFY_BATCH works (every generated packet finds a match).
#   3. INSERT_RULE of the catch-all at global index 0 replies OK only
#      after its snapshot is published — so the very next classify must
#      report rule 0 as the best match for EVERY packet.
#   4. STATS serves JSON carrying the server counter block.
#   5. SIGTERM triggers a graceful drain: the daemon exits 0 by itself
#      and logs the drained counter line.
#   6. A SIGTERM sent the moment the port file appears drains too: the
#      daemon installs its handlers before it publishes the port.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target rfipcd rfipc_client

workdir="${BUILD_DIR}/server-smoke"
mkdir -p "${workdir}"
port_file="${workdir}/rfipcd.port"
log="${workdir}/rfipcd.log"
rm -f "${port_file}"

RULES=96
COUNT=512
CLIENT="${BUILD_DIR}/examples/rfipc_client"

"${BUILD_DIR}/examples/rfipcd" --rules "${RULES}" --shards 2 \
  --port-file "${port_file}" > "${log}" 2>&1 &
DAEMON=$!
trap 'kill -9 ${DAEMON} 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
  [[ -s "${port_file}" ]] && break
  sleep 0.1
done
[[ -s "${port_file}" ]] || { echo "server_smoke: rfipcd never wrote ${port_file}" >&2; exit 1; }
PORT="$(cat "${port_file}")"
echo "server_smoke: rfipcd is listening on port ${PORT}"

"${CLIENT}" --port "${PORT}" ping | grep -q PONG

before="$("${CLIENT}" --port "${PORT}" classify --rules "${RULES}" --count "${COUNT}")"
echo "server_smoke: ${before}"
grep -q "hits ${COUNT}/${COUNT}" <<<"${before}" \
  || { echo "server_smoke: expected full match coverage pre-insert" >&2; exit 1; }

"${CLIENT}" --port "${PORT}" insert --index 0 | grep -q 'snapshot published'

after="$("${CLIENT}" --port "${PORT}" classify --rules "${RULES}" --count "${COUNT}")"
echo "server_smoke: ${after}"
grep -q "top-index-share ${COUNT}/${COUNT}" <<<"${after}" \
  || { echo "server_smoke: catch-all at index 0 must win every packet post-insert" >&2; exit 1; }

stats="$("${CLIENT}" --port "${PORT}" stats)"
grep -q '"server"' <<<"${stats}" \
  || { echo "server_smoke: STATS JSON is missing the server counter block" >&2; exit 1; }
echo "server_smoke: stats ${stats}"

# After a SIGTERM, require a graceful drain within 10 s: exit 0 and
# the drained counter line in the daemon's log.
check_drained() {
  local leg="$1"
  for _ in $(seq 1 100); do
    kill -0 "${DAEMON}" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "${DAEMON}" 2>/dev/null; then
    echo "server_smoke: ${leg}: rfipcd did not drain within 10s of SIGTERM" >&2
    exit 1
  fi
  wait "${DAEMON}" && rc=0 || rc=$?
  trap - EXIT
  [[ "${rc}" -eq 0 ]] \
    || { echo "server_smoke: ${leg}: rfipcd exited ${rc}" >&2; cat "${log}" >&2; exit 1; }
  grep -q 'drained' "${log}" \
    || { echo "server_smoke: ${leg}: drain line missing from the daemon log" >&2; cat "${log}" >&2; exit 1; }
}

kill -TERM "${DAEMON}"
check_drained "drain"

# Prompt-SIGTERM leg: signal as soon as the port file exists.
rm -f "${port_file}"
"${BUILD_DIR}/examples/rfipcd" --rules "${RULES}" --shards 2 \
  --port-file "${port_file}" > "${log}" 2>&1 &
DAEMON=$!
trap 'kill -9 ${DAEMON} 2>/dev/null || true' EXIT
# Spin without sleeping so the signal lands microseconds after the file
# appears (a 10 ms poll misses a late handler install); a daemon that
# dies first ends the spin too.
until [[ -e "${port_file}" ]] || ! kill -0 "${DAEMON}" 2>/dev/null; do :; done
kill -TERM "${DAEMON}" 2>/dev/null || true
[[ -e "${port_file}" ]] || { echo "server_smoke: rfipcd never wrote ${port_file}" >&2; exit 1; }
check_drained "prompt SIGTERM"
echo "server_smoke: prompt SIGTERM drained cleanly"

echo
echo "server_smoke: PASS (classify -> insert -> classify -> stats -> drain, prompt drain)"
