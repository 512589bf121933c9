#!/usr/bin/env bash
# Minimum-cut enumeration smoke test for CI: the `auto` strategy, which
# lists cut sizes >= 4 as minimum cuts from unit-flow residual graphs, must
# produce byte-identical solutions to the strategies it agrees with, end to
# end through the CLI, and must solve Q_8 at k = 8.
#
#  1. k = 4 on Q_4: solve with --strategy auto and --strategy exact (every
#     level's cut size is at most 3, so both run the exact specializations)
#     and require the two solution files to be byte-identical.
#  2. k = 8 on harary(8, 10): solve with --strategy auto and with the
#     deterministically complete --strategy label, same seed, and require
#     byte-identical solutions (both list every cut of each level, so
#     agreement is the determinism contract, not luck). On harary(8, 16)
#     label exceeds its candidate budget; n = 10 keeps it inside.
#  3. k = 8 on Q_8 through auto: generate -> solve -> verify, printing the
#     solve's wall time.
#
# Every solution is independently re-verified with `kecss verify`.
set -euo pipefail

# shellcheck source=ci/lib.sh
source "$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/lib.sh"
smoke_init

echo "== k = 4 on Q_4: auto vs exact, byte-for-byte"
"${KECSS}" generate --family hypercube --n 16 --k 4 --output "${WORKDIR}/q4.graph"
"${KECSS}" solve --input "${WORKDIR}/q4.graph" --algorithm kecss --k 4 \
  --strategy auto --seed 3 --output "${WORKDIR}/q4-auto.edges"
"${KECSS}" solve --input "${WORKDIR}/q4.graph" --algorithm kecss --k 4 \
  --strategy exact --seed 3 --output "${WORKDIR}/q4-exact.edges"
cmp "${WORKDIR}/q4-auto.edges" "${WORKDIR}/q4-exact.edges" \
  || { echo "auto and exact solutions differ on Q_4"; exit 1; }
"${KECSS}" verify --input "${WORKDIR}/q4.graph" --solution "${WORKDIR}/q4-auto.edges" --k 4

echo "== k = 8 on harary(8, 10): auto vs label, byte-for-byte"
"${KECSS}" generate --family harary --n 10 --k 8 --output "${WORKDIR}/h8.graph"
"${KECSS}" solve --input "${WORKDIR}/h8.graph" --algorithm kecss --k 8 \
  --strategy auto --seed 3 --output "${WORKDIR}/h8-auto.edges"
"${KECSS}" solve --input "${WORKDIR}/h8.graph" --algorithm kecss --k 8 \
  --strategy label --seed 3 --output "${WORKDIR}/h8-label.edges"
cmp "${WORKDIR}/h8-auto.edges" "${WORKDIR}/h8-label.edges" \
  || { echo "auto and label solutions differ at k = 8"; exit 1; }
"${KECSS}" verify --input "${WORKDIR}/h8.graph" --solution "${WORKDIR}/h8-auto.edges" --k 8

echo "== k = 8 on Q_8: generate -> solve (auto) -> verify"
"${KECSS}" generate --family hypercube --n 256 --k 8 --output "${WORKDIR}/q8.graph"
start_ns=$(date +%s%N)
"${KECSS}" solve --input "${WORKDIR}/q8.graph" --algorithm kecss --k 8 \
  --strategy auto --seed 3 --output "${WORKDIR}/q8-auto.edges"
end_ns=$(date +%s%N)
echo "Q_8 k = 8 solve wall time: $(( (end_ns - start_ns) / 1000000 )) ms"
"${KECSS}" verify --input "${WORKDIR}/q8.graph" --solution "${WORKDIR}/q8-auto.edges" --k 8

echo "mincut smoke: OK"
