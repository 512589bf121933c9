#!/usr/bin/env bash
# Deployment smoke test: runs deployment/entrypoint.sh — the container's
# command — once per docker-compose.yml service, with that service's
# environment (the Dockerfile's ENV defaults, then the compose overrides),
# as plain processes. Addresses are rewritten for one host: every bind to
# 127.0.0.1:0, the workers' coordinator to the coordinator's bound address,
# and the advertised address to empty (advertise the bound one). The fleet
# must come up, register every worker, serve one job through the
# coordinator, and exit cleanly on SHUTDOWN. This catches a role handed a
# flag `kecss serve` refuses for it, which would stop its container at start.
#
# Needs target/release/kecss (cargo build --release); the caller wraps this
# script in `timeout`, and every wait here is bounded too.
set -euo pipefail

# shellcheck source=ci/lib.sh
source "$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/lib.sh"
smoke_init

DEPLOY="$(cd "$(dirname "${BASH_SOURCE[0]}")/../deployment" && pwd)"
PATH="$(cd "$(dirname "${KECSS}")" && pwd):${PATH}"
export PATH

declare -A PID ADDR
COORD=""

# The compose services, in file order.
mapfile -t SERVICES < <(sed -n 's/^  \([A-Za-z0-9_-]*\):$/\1/p' "${DEPLOY}/docker-compose.yml")

# service_env SERVICE — KEY=VALUE lines: the Dockerfile's ENV defaults, then
# the compose service's environment (later lines win).
service_env() {
  grep -o 'KECSS_[A-Z_]*=[^ \\]*' "${DEPLOY}/Dockerfile" | tr -d '"'
  awk -v svc="$1" '
    /^  [A-Za-z0-9_-]+:$/ { current = substr($1, 1, length($1) - 1); in_env = 0; next }
    current == svc && /^    environment:$/ { in_env = 1; next }
    in_env && /^      [A-Z_]+:/ {
      key = $1; sub(/:$/, "", key)
      value = $0; sub(/^ *[A-Z_]+: */, "", value); gsub(/"/, "", value)
      print key "=" value
      next
    }
    in_env && !/^      / { in_env = 0 }
  ' "${DEPLOY}/docker-compose.yml"
}

# start_service SERVICE — runs the entrypoint with the service's rewritten
# environment in the background; its output goes to ${WORKDIR}/SERVICE.log.
start_service() {
  local line
  (
    while IFS= read -r line; do
      export "${line?}"
    done < <(service_env "$1")
    export KECSS_ADDR=127.0.0.1:0 KECSS_ADVERTISE=""
    if [[ "${KECSS_ROLE}" == worker ]]; then
      export KECSS_COORDINATOR="${COORD}"
    fi
    exec bash "${DEPLOY}/entrypoint.sh"
  ) >"${WORKDIR}/$1.log" 2>&1 &
  PID["$1"]=$!
  smoke_track "$!"
}

role_of() {
  service_env "$1" | sed -n 's/^KECSS_ROLE=//p' | tail -n1
}

WORKERS=()
for svc in "${SERVICES[@]}"; do
  if [[ "$(role_of "${svc}")" == coordinator ]]; then
    COORD_SVC="${svc}"
  else
    WORKERS+=("${svc}")
  fi
done
[[ -n "${COORD_SVC:-}" && ${#WORKERS[@]} -gt 0 ]] \
  || { echo "compose file lacks a coordinator or workers: ${SERVICES[*]}"; exit 1; }

echo "== starting ${COORD_SVC} (coordinator)"
start_service "${COORD_SVC}"
wait_listen_addr COORD "${WORKDIR}/${COORD_SVC}.log" "${PID[${COORD_SVC}]}"
wait_port_accepting "${COORD}"
ADDR["${COORD_SVC}"]="${COORD}"

for svc in "${WORKERS[@]}"; do
  echo "== starting ${svc} ($(role_of "${svc}"))"
  start_service "${svc}"
  wait_listen_addr "ADDR[${svc}]" "${WORKDIR}/${svc}.log" "${PID[${svc}]}"
done

all_registered() {
  "${KECSS}" fleet-status --addr "${COORD}" 2>/dev/null \
    | grep -q "^workers ${#WORKERS[@]} live ${#WORKERS[@]}$"
}
poll_until "${#WORKERS[@]} workers to register" 300 all_registered
echo "== ${#WORKERS[@]} workers registered with ${COORD}"

"${KECSS}" submit --addr "${COORD}" --instance ring:32 --k 2 --algorithm kecss \
  --seed 1 --payload-only true >"${WORKDIR}/job.out" \
  || { echo "job through the coordinator failed"; cat "${WORKDIR}/job.out"; exit 1; }
grep -q "verified k=2 yes" "${WORKDIR}/job.out" \
  || { echo "payload not verified:"; cat "${WORKDIR}/job.out"; exit 1; }
echo "== one job served through the coordinator"

for svc in "${COORD_SVC}" "${WORKERS[@]}"; do
  "${KECSS}" submit --addr "${ADDR[${svc}]}" --shutdown true >/dev/null
  wait_pid_exit "${PID[${svc}]}" 100 \
    || { echo "${svc} did not exit after SHUTDOWN:"; cat "${WORKDIR}/${svc}.log"; exit 1; }
done
grep -q "fleet served 1 jobs: 1 completed, 0 failed" "${WORKDIR}/${COORD_SVC}.log" \
  || { echo "coordinator summary missing:"; cat "${WORKDIR}/${COORD_SVC}.log"; exit 1; }
echo "== deployment smoke OK: $(grep 'fleet served' "${WORKDIR}/${COORD_SVC}.log")"
