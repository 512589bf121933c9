#!/usr/bin/env bash
# Fleet smoke test for CI (ISSUE 9): a coordinator plus two workers on
# ephemeral ports, real processes end to end, proving the two fleet
# guarantees the unit tests cannot:
#
#  1. **Retry-on-worker-loss across processes.** A slow job (Q_10 at k = 10,
#     several seconds of solving) is dispatched, the worker actually running
#     it is identified through `kecss fleet-status` and killed with SIGKILL
#     mid-job, and the job must complete on the surviving worker — with a
#     charged retry visible in the FLEET text and the
#     `fleet_job_retries_total` metric.
#  2. **Byte-identical payloads.** Every payload fetched through the fleet
#     (`kecss submit --payload-only true`) is compared with `cmp` against the
#     same spec's payload from a standalone 1-process server: a worker death
#     and re-dispatch must not change a single byte (DESIGN.md §13).
#
# The caller wraps this script in `timeout`; every wait here is still
# bounded so failures are attributed, not just killed.
set -euo pipefail

# shellcheck source=ci/lib.sh
source "$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/lib.sh"
smoke_init

# The specs: one slow job (the kill window) and two quick ones.
SLOW=(--instance hypercube:1024 --k 10 --algorithm kecss --enumerator auto --seed 3)
QUICK_A=(--instance ring:32 --k 2 --algorithm kecss --enumerator auto --seed 1)
QUICK_B=(--instance harary:24:9 --k 3 --algorithm kecss --enumerator auto --seed 2)

echo "== oracle: the same specs through a standalone server"
"${KECSS}" serve --addr 127.0.0.1:0 --threads 2 --queue-depth 8 \
  >"${WORKDIR}/solo.log" 2>&1 &
SOLO_PID=$!
smoke_track "${SOLO_PID}"
wait_listen_addr SOLO "${WORKDIR}/solo.log" "${SOLO_PID}"
wait_port_accepting "${SOLO}"
"${KECSS}" submit --addr "${SOLO}" "${SLOW[@]}" --payload-only true \
  >"${WORKDIR}/solo.slow" \
  || { echo "standalone slow job failed"; cat "${WORKDIR}/solo.slow"; exit 1; }
"${KECSS}" submit --addr "${SOLO}" "${QUICK_A[@]}" --payload-only true \
  >"${WORKDIR}/solo.quick_a" \
  || { echo "standalone quick job A failed"; cat "${WORKDIR}/solo.quick_a"; exit 1; }
"${KECSS}" submit --addr "${SOLO}" "${QUICK_B[@]}" --payload-only true \
  >"${WORKDIR}/solo.quick_b" \
  || { echo "standalone quick job B failed"; cat "${WORKDIR}/solo.quick_b"; exit 1; }
"${KECSS}" submit --addr "${SOLO}" --shutdown true >/dev/null
wait_pid_exit "${SOLO_PID}" 100

echo "== starting the coordinator and two workers"
"${KECSS}" serve --role coordinator --addr 127.0.0.1:0 --queue-depth 16 \
  --heartbeat-timeout-ms 1500 >"${WORKDIR}/coord.log" 2>&1 &
COORD_PID=$!
smoke_track "${COORD_PID}"
wait_listen_addr COORD "${WORKDIR}/coord.log" "${COORD_PID}"
wait_port_accepting "${COORD}"

declare -A WORKER_PID
for w in w1 w2; do
  "${KECSS}" serve --role worker --addr 127.0.0.1:0 --coordinator "${COORD}" \
    --worker-id "${w}" --heartbeat-ms 200 --threads 2 --queue-depth 8 \
    >"${WORKDIR}/${w}.log" 2>&1 &
  WORKER_PID[${w}]=$!
  smoke_track "${WORKER_PID[${w}]}"
done

fleet_text() { "${KECSS}" fleet-status --addr "${COORD}"; }
both_live() { fleet_text | grep -q "workers 2 live 2"; }
poll_until "both workers to register" 100 both_live
echo "== fleet is up: 2 live workers"

echo "== submitting the slow job (the kill window)"
"${KECSS}" submit --addr "${COORD}" "${SLOW[@]}" --payload-only true \
  >"${WORKDIR}/fleet.slow" 2>"${WORKDIR}/fleet.slow.err" &
SLOW_SUBMIT=$!

# Job 1 is the slow one (first submission on a fresh coordinator). Find the
# worker actually running it.
slow_running() { fleet_text | grep -Eq "^job 1 RUNNING worker w[12]"; }
poll_until "job 1 to start running" 150 slow_running
VICTIM="$(fleet_text | sed -n 's/^job 1 RUNNING worker \(w[12]\).*/\1/p' | head -n1)"
[[ -n "${VICTIM}" ]] || { echo "cannot identify job 1's worker"; fleet_text; exit 1; }

echo "== submitting two quick jobs alongside"
"${KECSS}" submit --addr "${COORD}" "${QUICK_A[@]}" --payload-only true \
  >"${WORKDIR}/fleet.quick_a" &
QA_SUBMIT=$!
"${KECSS}" submit --addr "${COORD}" "${QUICK_B[@]}" --payload-only true \
  >"${WORKDIR}/fleet.quick_b" &
QB_SUBMIT=$!

echo "== killing ${VICTIM} (pid ${WORKER_PID[${VICTIM}]}) mid-job with SIGKILL"
kill -9 "${WORKER_PID[${VICTIM}]}"

wait "${SLOW_SUBMIT}" \
  || { echo "slow job did not survive the worker loss:"; cat "${WORKDIR}/fleet.slow.err"; fleet_text; exit 1; }
wait "${QA_SUBMIT}" || { echo "quick job A failed"; exit 1; }
wait "${QB_SUBMIT}" || { echo "quick job B failed"; exit 1; }
echo "== all three jobs completed despite the loss"

echo "== comparing fleet payloads byte-for-byte against the standalone oracle"
for name in slow quick_a quick_b; do
  cmp "${WORKDIR}/solo.${name}" "${WORKDIR}/fleet.${name}" \
    || { echo "payload for ${name} differs between standalone and fleet"; exit 1; }
done
echo "== payloads byte-identical"

echo "== checking the loss was charged as a retry"
fleet_text >"${WORKDIR}/fleet.final"
grep -q "worker ${VICTIM} .* dead" "${WORKDIR}/fleet.final" \
  || { echo "killed worker not marked dead:"; cat "${WORKDIR}/fleet.final"; exit 1; }
RETRIES="$(sed -n 's/.* retries \([0-9]*\)$/\1/p' "${WORKDIR}/fleet.final" | head -n1)"
[[ "${RETRIES:-0}" -ge 1 ]] \
  || { echo "no retry recorded in the FLEET text:"; cat "${WORKDIR}/fleet.final"; exit 1; }
"${KECSS}" submit --addr "${COORD}" --metrics true >"${WORKDIR}/metrics.out"
METRIC_RETRIES="$(grep "^fleet_job_retries_total " "${WORKDIR}/metrics.out" | head -n1 | awk '{print $NF}')"
[[ "${METRIC_RETRIES:-0}" -ge 1 ]] \
  || { echo "fleet_job_retries_total did not advance:"; cat "${WORKDIR}/metrics.out"; exit 1; }
echo "== retry recorded: FLEET retries=${RETRIES}, fleet_job_retries_total=${METRIC_RETRIES}"

echo "== shutting the fleet down"
"${KECSS}" submit --addr "${COORD}" --shutdown true >/dev/null
wait_pid_exit "${COORD_PID}" 100 || {
  echo "coordinator is still running after SHUTDOWN:"; cat "${WORKDIR}/coord.log"; exit 1
}
grep -q "fleet served 3 jobs: 3 completed, 0 failed" "${WORKDIR}/coord.log" \
  || { echo "unexpected fleet summary:"; cat "${WORKDIR}/coord.log"; exit 1; }

SURVIVOR=w1; [[ "${VICTIM}" == w1 ]] && SURVIVOR=w2
wait_listen_addr SURVIVOR_ADDR "${WORKDIR}/${SURVIVOR}.log" "${WORKER_PID[${SURVIVOR}]}"
"${KECSS}" submit --addr "${SURVIVOR_ADDR}" --shutdown true >/dev/null
wait_pid_exit "${WORKER_PID[${SURVIVOR}]}" 100

echo "== fleet smoke OK: $(grep 'fleet served' "${WORKDIR}/coord.log")"
