#!/usr/bin/env bash
# Compact-core smoke test for CI: exercise the KGB1 binary instance format at
# the ROADMAP's "instance files at scale" size. Generates a >= 100k-vertex
# instance directly in binary format, converts it to text and back, solves
# --k 2 from BOTH formats (thurimella sparse certificate + exact linear-time
# 2-edge-connectivity verification), and requires the two solution files to
# be byte-identical — the bit-determinism contract of DESIGN.md §10. It also
# solves the instance with the paper's 2-ECSS, whose round accounting must
# stay off the all-pairs diameter above the exact-diameter cap.
set -euo pipefail

# shellcheck source=ci/lib.sh
source "$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/lib.sh"
smoke_init

N=100000

echo "== generating a ${N}-vertex ring instance straight into .graphb"
"${KECSS}" generate --family ring --n "${N}" --k 2 --seed 5 \
  --output "${WORKDIR}/big.graphb"

echo "== converting binary -> text -> binary"
"${KECSS}" convert --input "${WORKDIR}/big.graphb" --output "${WORKDIR}/big.graph"
"${KECSS}" convert --input "${WORKDIR}/big.graph" --output "${WORKDIR}/big2.graphb"
cmp "${WORKDIR}/big.graphb" "${WORKDIR}/big2.graphb" \
  || { echo "binary -> text -> binary is not the identity"; exit 1; }

echo "== solving --k 2 from both formats"
"${KECSS}" solve --input "${WORKDIR}/big.graphb" --algorithm thurimella --k 2 \
  --output "${WORKDIR}/from-binary.edges" | tee "${WORKDIR}/solve.out"
grep -q "2-edge-connected ✓" "${WORKDIR}/solve.out" \
  || { echo "binary-format solve did not certify"; exit 1; }
"${KECSS}" solve --input "${WORKDIR}/big.graph" --algorithm thurimella --k 2 \
  --output "${WORKDIR}/from-text.edges" >/dev/null

echo "== solving --k 2 with the paper's 2-ECSS (Theorem 1.1)"
"${KECSS}" solve --input "${WORKDIR}/big.graphb" --algorithm 2ecss --k 2 \
  --output "${WORKDIR}/2ecss.edges" | tee "${WORKDIR}/2ecss.out"
grep -q "2-edge-connected ✓" "${WORKDIR}/2ecss.out" \
  || { echo "2ecss solve did not certify"; exit 1; }

echo "== checking bit-determinism across formats"
cmp "${WORKDIR}/from-binary.edges" "${WORKDIR}/from-text.edges" \
  || { echo "solutions differ between .graph and .graphb inputs"; exit 1; }

echo "== verifying the solution against the binary instance"
"${KECSS}" verify --input "${WORKDIR}/big.graphb" \
  --solution "${WORKDIR}/from-binary.edges" --k 2

echo "== compact-core smoke OK"
