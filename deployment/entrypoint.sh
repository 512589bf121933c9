#!/usr/bin/env bash
# Container entrypoint for the kecss solver service: runs `kecss serve` in
# the role KECSS_ROLE names, passing only the flags that role takes
# (`kecss serve` refuses a flag that does not apply to its role). The knobs:
#
#   KECSS_ROLE                    standalone (default) | coordinator | worker
#   KECSS_ADDR, KECSS_QUEUE_DEPTH every role
#   KECSS_THREADS                 standalone, worker
#   KECSS_HEARTBEAT_TIMEOUT_MS    coordinator
#   KECSS_MAX_RETRIES             coordinator
#   KECSS_COORDINATOR             worker
#   KECSS_WORKER_ID               worker
#   KECSS_ADVERTISE               worker
#   KECSS_HEARTBEAT_MS            worker
#
# An unset or empty knob keeps the `kecss serve` default. `kecss` is looked
# up on PATH (ci/deployment_smoke.sh runs this script outside a container).
set -euo pipefail

role="${KECSS_ROLE:-standalone}"
args=(serve --role "${role}")

# opt FLAG VALUE — append `--FLAG VALUE` unless VALUE is empty.
opt() {
  if [[ -n "$2" ]]; then
    args+=("--$1" "$2")
  fi
}

opt addr "${KECSS_ADDR:-}"
opt queue-depth "${KECSS_QUEUE_DEPTH:-}"
case "${role}" in
  coordinator)
    opt heartbeat-timeout-ms "${KECSS_HEARTBEAT_TIMEOUT_MS:-}"
    opt max-retries "${KECSS_MAX_RETRIES:-}"
    ;;
  worker)
    opt threads "${KECSS_THREADS:-}"
    opt coordinator "${KECSS_COORDINATOR:-}"
    opt worker-id "${KECSS_WORKER_ID:-}"
    opt advertise "${KECSS_ADVERTISE:-}"
    opt heartbeat-ms "${KECSS_HEARTBEAT_MS:-}"
    ;;
  *)
    # standalone; `kecss serve` itself refuses an unknown role.
    opt threads "${KECSS_THREADS:-}"
    ;;
esac

exec kecss "${args[@]}"
